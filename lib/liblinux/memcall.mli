(** The guest's memory-access calls, [poke] and [peek], shared by
    libLinux and the native personality so that both decode, check and
    charge them the same way.

    - [poke addr s] writes the string [s] at [addr].
    - [poke addr (c, n)] writes [n] copies of the one-byte string [c]
      without building them ({!Graphene_host.Memory.fill}); [c] of
      another length or [n < 0] is [EINVAL].
    - [peek addr n] returns the [n] bytes at [addr]; [n < 0] is
      [EINVAL].

    A range that is not wholly mapped with the needed permission is
    [EFAULT], found before any byte is written or any buffer made. A
    [poke] charges {!Graphene_sim.Cost.copy_cost} of the bytes written
    plus {!Graphene_sim.Cost.cow_fault} per copy-on-write break, and
    updates the peak RSS; a [peek] charges the copy of its bytes. *)

val call :
  Graphene_host.Kernel.pico ->
  string ->
  Graphene_guest.Ast.value list ->
  (Graphene_guest.Ast.value * Graphene_sim.Time.t, Graphene_core.Errno.t) result
(** [call pico name args] for [name] ["poke"] or ["peek"]: the result
    and the cost to charge, or the errno. *)
