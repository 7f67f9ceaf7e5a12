open Ast

module Env = Map.Make (String)
module Store = Map.Make (Int)

type control =
  | Eval of expr
  | Ret of value
  | Await  (** suspended on a syscall, waiting for [resume] *)

(* Frames never capture the environment except the two scope frames,
   KRestore and KReturn: every transition that extends the environment
   (Let, Match, Call) pushes one of them holding the previous
   environment, so the environment in the state is always the right
   one when any other frame resumes.

   Both scope frames also record the store watermark ([next_loc]) at
   their push. When one pops, every location at or above it is freed
   and [next_loc] goes back to it, so the store holds only live
   bindings and a checkpoint carries no dead ones. This is sound
   because no value holds a location ([Ast.value] is plain data), and
   every older frame and environment was built before the scope's
   locations existed. *)
type frame =
  | KRestore of int Env.t * int
  | KReturn of int Env.t * int
      (** function return: restore the caller's environment and pop the
          call stack (KRestore without the stack pop is for Let/Match
          scopes, which are not calls) *)
  | KLet of string * expr
  | KSet of string
  | KSeq of expr
  | KIf of expr * expr
  | KWhile of expr * expr  (** condition just evaluated *)
  | KWhileBody of expr * expr  (** body just evaluated *)
  | KAnd of expr
  | KOr of expr
  | KBinop1 of binop * expr
  | KBinop2 of binop * value
  | KUnop of unop
  | KCons1 of expr
  | KCons2 of value
  | KPair1 of expr
  | KPair2 of value
  | KMatch of expr * (string * string * expr)
  | KCall of string * value list * expr list
  | KSys of string * value list * expr list
  | KSpin
  | KResume of control  (** return from an injected signal handler *)

type state = {
  control : control;
  env : int Env.t;
  store : value Store.t;
  next_loc : int;
  kont : frame list;
  program : program;
  steps : int;
  stack : string list;
      (** guest call stack, innermost first; the synthetic root frame
          ["main"] is never popped. Maintained unconditionally (not
          gated on tracing) so traced and untraced runs execute — and
          checkpoint — identically. *)
}

type status =
  | Running of state
  | Compute of int * state
  | Syscall of string * Ast.value list * state
  | Finished of Ast.value
  | Fault of string

let start program ~argv =
  let store = Store.singleton 0 (Vlist (List.map (fun s -> Vstr s) argv)) in
  { control = Eval program.main;
    env = Env.singleton "argv" 0;
    store;
    next_loc = 1;
    kont = [];
    program;
    steps = 0;
    stack = [ "main" ] }

(* Split [s] on the (non-empty) separator string [sep]. *)
let split_on_string s sep =
  let seplen = String.length sep in
  if seplen = 0 then raise (Guest_fault "Split: empty separator");
  let n = String.length s in
  let rec loop start i acc =
    if i + seplen > n then List.rev (String.sub s start (n - start) :: acc)
    else if String.sub s i seplen = sep then
      loop (i + seplen) (i + seplen) (String.sub s start (i - start) :: acc)
    else loop start (i + 1) acc
  in
  loop 0 0 []

(* [s] concatenated [n] times, built in one allocation. *)
let repeat s n =
  let len = String.length s in
  if n < 0 then raise (Guest_fault "Repeat: negative count");
  if len > 0 && n > Sys.max_string_length / len then
    raise (Guest_fault "Repeat: result too long");
  if len = 0 then ""
  else if len = 1 then String.make n s.[0]
  else begin
    let buf = Bytes.create (len * n) in
    for i = 0 to n - 1 do
      Bytes.blit_string s 0 buf (i * len) len
    done;
    Bytes.unsafe_to_string buf
  end

let apply_binop op a b =
  let int_op f = Vint (f (as_int a) (as_int b)) in
  let cmp f = Vbool (f (compare a b) 0) in
  match op with
  | Add -> int_op ( + )
  | Sub -> int_op ( - )
  | Mul -> int_op ( * )
  | Div ->
    if as_int b = 0 then raise (Guest_fault "division by zero") else int_op ( / )
  | Mod ->
    if as_int b = 0 then raise (Guest_fault "modulo by zero") else int_op (fun x y -> x mod y)
  | Eq -> Vbool (equal_value a b)
  | Ne -> Vbool (not (equal_value a b))
  | Lt -> cmp ( < )
  | Le -> cmp ( <= )
  | Gt -> cmp ( > )
  | Ge -> cmp ( >= )
  | Concat -> Vstr (as_str a ^ as_str b)
  | Split -> Vlist (List.map (fun s -> Vstr s) (split_on_string (as_str a) (as_str b)))
  | Nth -> (
    let l = as_list a and i = as_int b in
    match if i < 0 then None else List.nth_opt l i with
    | Some v -> v
    | None -> raise (Guest_fault (Printf.sprintf "Nth: index %d out of bounds" i)))
  | Starts_with ->
    let s = as_str a and p = as_str b in
    Vbool (String.length s >= String.length p && String.sub s 0 (String.length p) = p)
  | Repeat -> Vstr (repeat (as_str a) (as_int b))

let apply_unop op v =
  match op with
  | Not -> Vbool (not (as_bool v))
  | Neg -> Vint (-as_int v)
  | Len -> (
    match v with
    | Vstr s -> Vint (String.length s)
    | Vlist l -> Vint (List.length l)
    | _ -> raise (Guest_fault "Len: expected string or list"))
  | Str_of_int -> Vstr (string_of_int (as_int v))
  | Int_of_str -> (
    match int_of_string_opt (String.trim (as_str v)) with
    | Some n -> Vint n
    | None -> raise (Guest_fault ("Int_of_str: malformed number " ^ as_str v)))
  | Head -> (
    match as_list v with
    | x :: _ -> x
    | [] -> raise (Guest_fault "Head: empty list"))
  | Tail -> (
    match as_list v with
    | _ :: t -> Vlist t
    | [] -> raise (Guest_fault "Tail: empty list"))
  | Fst -> ( match v with Vpair (a, _) -> a | _ -> raise (Guest_fault "Fst: expected pair"))
  | Snd -> ( match v with Vpair (_, b) -> b | _ -> raise (Guest_fault "Snd: expected pair"))
  | Is_empty -> Vbool (as_list v = [])

(* Leaving a scope frees its locations, from the top [loc] down to the
   scope's watermark [mark]. *)
let rec free store loc mark =
  if loc < mark then store else free (Store.remove loc store) (loc - 1) mark

let find_func program name =
  match List.assoc_opt name program.funcs with
  | Some f -> f
  | None -> raise (Guest_fault ("undefined function " ^ name))

(* The machine runs in registers: [eval] and [ret] carry the state's
   fields as arguments, together with the number of steps [taken] so
   far, and a [state] record is built only where the run stops. Each
   call of [eval] or [ret] is one small step; the fuel check comes
   before it, so the state at a fuel boundary is the one single steps
   would reach. *)
let run st ~fuel =
  let program = st.program and steps = st.steps in
  let stop control env store next_loc kont stack taken =
    { control; env; store; next_loc; kont; program; steps = steps + taken; stack }
  in
  let rec eval e env store next_loc kont stack taken =
    if taken = fuel then Running (stop (Eval e) env store next_loc kont stack taken)
    else
      let taken = taken + 1 in
      match e with
      | Const v -> ret v env store next_loc kont stack taken
      | Var x -> (
        match Env.find x env with
        | loc -> ret (Store.find loc store) env store next_loc kont stack taken
        | exception Not_found -> raise (Guest_fault ("unbound variable " ^ x)))
      | Let (x, e1, body) -> eval e1 env store next_loc (KLet (x, body) :: kont) stack taken
      | Set (x, e1) -> eval e1 env store next_loc (KSet x :: kont) stack taken
      | If (c, t, f) -> eval c env store next_loc (KIf (t, f) :: kont) stack taken
      | While (c, body) -> eval c env store next_loc (KWhile (c, body) :: kont) stack taken
      | Seq (e1, e2) -> eval e1 env store next_loc (KSeq e2 :: kont) stack taken
      | And (e1, e2) -> eval e1 env store next_loc (KAnd e2 :: kont) stack taken
      | Or (e1, e2) -> eval e1 env store next_loc (KOr e2 :: kont) stack taken
      | Binop (op, e1, e2) -> eval e1 env store next_loc (KBinop1 (op, e2) :: kont) stack taken
      | Unop (op, e1) -> eval e1 env store next_loc (KUnop op :: kont) stack taken
      | Cons (e1, e2) -> eval e1 env store next_loc (KCons1 e2 :: kont) stack taken
      | Pair (e1, e2) -> eval e1 env store next_loc (KPair1 e2 :: kont) stack taken
      | Match_list (e1, nil_case, cons_case) ->
        eval e1 env store next_loc (KMatch (nil_case, cons_case) :: kont) stack taken
      | Call (f, []) -> call f [] env store next_loc kont stack taken
      | Call (f, a :: rest) -> eval a env store next_loc (KCall (f, [], rest) :: kont) stack taken
      | Syscall (name, []) -> Syscall (name, [], stop Await env store next_loc kont stack taken)
      | Syscall (name, a :: rest) ->
        eval a env store next_loc (KSys (name, [], rest) :: kont) stack taken
      | Spin e1 -> eval e1 env store next_loc (KSpin :: kont) stack taken
  and ret v env store next_loc kont stack taken =
    if taken = fuel then Running (stop (Ret v) env store next_loc kont stack taken)
    else
      let taken = taken + 1 in
      match kont with
      | [] -> Finished v
      | frame :: kont -> (
        match frame with
        | KRestore (env, mark) -> ret v env (free store (next_loc - 1) mark) mark kont stack taken
        | KReturn (env, mark) ->
          let stack = match stack with _ :: (_ :: _ as r) -> r | s -> s in
          ret v env (free store (next_loc - 1) mark) mark kont stack taken
        | KLet (x, body) ->
          eval body (Env.add x next_loc env) (Store.add next_loc v store) (next_loc + 1)
            (KRestore (env, next_loc) :: kont) stack taken
        | KSet x -> (
          match Env.find x env with
          | loc -> ret Vunit env (Store.add loc v store) next_loc kont stack taken
          | exception Not_found -> raise (Guest_fault ("assignment to unbound variable " ^ x)))
        | KSeq e2 -> eval e2 env store next_loc kont stack taken
        | KIf (t, f) -> eval (if truthy v then t else f) env store next_loc kont stack taken
        | KWhile (c, body) ->
          if truthy v then eval body env store next_loc (KWhileBody (c, body) :: kont) stack taken
          else ret Vunit env store next_loc kont stack taken
        | KWhileBody (c, body) -> eval c env store next_loc (KWhile (c, body) :: kont) stack taken
        | KAnd e2 ->
          if truthy v then eval e2 env store next_loc kont stack taken
          else ret (Vbool false) env store next_loc kont stack taken
        | KOr e2 ->
          if truthy v then ret (Vbool true) env store next_loc kont stack taken
          else eval e2 env store next_loc kont stack taken
        | KBinop1 (op, e2) -> eval e2 env store next_loc (KBinop2 (op, v) :: kont) stack taken
        | KBinop2 (op, a) -> ret (apply_binop op a v) env store next_loc kont stack taken
        | KUnop op -> ret (apply_unop op v) env store next_loc kont stack taken
        | KCons1 e2 -> eval e2 env store next_loc (KCons2 v :: kont) stack taken
        | KCons2 hd -> ret (Vlist (hd :: as_list v)) env store next_loc kont stack taken
        | KPair1 e2 -> eval e2 env store next_loc (KPair2 v :: kont) stack taken
        | KPair2 a -> ret (Vpair (a, v)) env store next_loc kont stack taken
        | KMatch (nil_case, (h, t, cons_case)) -> (
          match as_list v with
          | [] -> eval nil_case env store next_loc kont stack taken
          | hd :: tl ->
            let env' = Env.add t (next_loc + 1) (Env.add h next_loc env) in
            let store' = Store.add (next_loc + 1) (Vlist tl) (Store.add next_loc hd store) in
            eval cons_case env' store' (next_loc + 2) (KRestore (env, next_loc) :: kont) stack
              taken)
        | KCall (f, done_, todo) -> (
          match todo with
          | [] -> call f (List.rev (v :: done_)) env store next_loc kont stack taken
          | a :: rest ->
            eval a env store next_loc (KCall (f, v :: done_, rest) :: kont) stack taken)
        | KSys (name, done_, todo) -> (
          match todo with
          | [] ->
            let args = List.rev (v :: done_) in
            Syscall (name, args, stop Await env store next_loc kont stack taken)
          | a :: rest ->
            eval a env store next_loc (KSys (name, v :: done_, rest) :: kont) stack taken)
        | KSpin ->
          let n = as_int v in
          if n < 0 then raise (Guest_fault "Spin: negative work")
          else Compute (n, stop (Ret Vunit) env store next_loc kont stack taken)
        | KResume (Eval e) -> eval e env store next_loc kont stack taken
        | KResume (Ret v) -> ret v env store next_loc kont stack taken
        | KResume Await -> await env store next_loc kont stack taken)
  (* A machine awaiting a syscall result can take no step. *)
  and await env store next_loc kont stack taken =
    if taken = fuel then Running (stop Await env store next_loc kont stack taken)
    else invalid_arg "Interp.step: machine is awaiting a syscall result"
  (* Enter [fname]: its parameters bound in a fresh environment, in
     order, above a return frame holding the caller's environment. *)
  and call fname args env store next_loc kont stack taken =
    let func = find_func program fname in
    if List.compare_lengths func.params args <> 0 then
      raise
        (Guest_fault
           (Printf.sprintf "%s expects %d arguments, got %d" fname (List.length func.params)
              (List.length args)));
    let rec bind env' store loc params args =
      match (params, args) with
      | p :: params, a :: args ->
        bind (Env.add p loc env') (Store.add loc a store) (loc + 1) params args
      | _ -> eval func.body env' store loc (KReturn (env, next_loc) :: kont) (fname :: stack) taken
    in
    bind Env.empty store next_loc func.params args
  in
  let { control; env; store; next_loc; kont; stack; _ } = st in
  try
    match control with
    | Eval e -> eval e env store next_loc kont stack 0
    | Ret v -> ret v env store next_loc kont stack 0
    | Await -> await env store next_loc kont stack 0
  with Guest_fault msg -> Fault msg

let step st = run st ~fuel:1

let resume st v =
  (match st.control with
  | Await -> ()
  | _ -> invalid_arg "Interp.resume: machine is not awaiting a syscall result");
  { st with control = Ret v }

let has_func st name = List.mem_assoc name st.program.funcs

let interrupt st ~func ~args =
  if not (has_func st func) then
    raise (Guest_fault ("interrupt: no such handler " ^ func));
  { st with
    control = Eval (Call (func, List.map (fun v -> Const v) args));
    kont = KResume st.control :: st.kont }

let call_stack st = List.rev st.stack

let program_name st = st.program.name
let program_of_state st = st.program
let exec _st program ~argv = start program ~argv
let steps_executed st = st.steps
let to_bytes st = Marshal.to_string st []

let of_bytes s =
  try (Marshal.from_string s 0 : state)
  with _ -> failwith "Interp.of_bytes: corrupt machine image"

let state_size st = String.length (to_bytes st)
