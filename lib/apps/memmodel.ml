(** Guest-side working-set modeling.

    Real applications dirty heap far beyond their code: lighttpd keeps
    connection buffers and caches, Apache workers keep per-child pools,
    gcc keeps its IR. [dirty bytes] is the guest expression that
    allocates and writes that much anonymous memory, so the Figure 4
    footprints emerge from actual resident pages rather than constants.

    [bytes] is rounded down to a whole number of 64 KB chunks. *)

open Graphene_guest.Builder

let chunk = 65536

let dirty bytes =
  let n = bytes / chunk * chunk in
  if n = 0 then unit
  else
    let_ "__wsbase"
      (sys "mmap" [ int n ])
      (let_ "__wsoff" (int 0)
         (while_
            (v "__wsoff" <% int n)
            (seq
               [ sys "poke" [ v "__wsbase" +% v "__wsoff"; pair (str "w") (int chunk) ];
                 set "__wsoff" (v "__wsoff" +% int chunk) ])))
