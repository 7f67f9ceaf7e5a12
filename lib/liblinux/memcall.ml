open Graphene_sim
module K = Graphene_host.Kernel
module Memory = Graphene_host.Memory
module Ast = Graphene_guest.Ast
module E = Graphene_core.Errno

let call pico name args =
  let aspace = pico.K.aspace in
  match (name, args) with
  | "poke", Ast.Vint addr :: data :: _ -> (
    (* [write ()] returns its COW copies *)
    let poke n write =
      if not (Memory.accessible aspace addr n ~write:true) then Error E.EFAULT
      else begin
        let cows = write () in
        K.update_peak_rss pico;
        Ok (Ast.Vint 0, Time.add (Cost.copy_cost n) (Time.scale Cost.cow_fault (float_of_int cows)))
      end
    in
    match data with
    | Ast.Vstr s -> poke (String.length s) (fun () -> Memory.write_bytes aspace addr s)
    | Ast.Vpair (Ast.Vstr c, Ast.Vint n) when String.length c = 1 && n >= 0 ->
      poke n (fun () -> Memory.fill aspace addr c.[0] n)
    | _ -> Error E.EINVAL)
  | "peek", Ast.Vint addr :: Ast.Vint n :: _ ->
    if n < 0 then Error E.EINVAL
    else if not (Memory.accessible aspace addr n ~write:false) then Error E.EFAULT
    else Ok (Ast.Vstr (Memory.read_bytes aspace addr n), Cost.copy_cost n)
  | _ -> Error E.EINVAL
