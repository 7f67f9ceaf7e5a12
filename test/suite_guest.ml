(** Tests for the guest language and its CEK machine: evaluation
    semantics, syscall suspension, fork-style state copying,
    serialization, and signal-style interruption. *)

open Graphene_guest
open Builder

let case = Util.case
let check_int = Util.check_int

(* Evaluate a closed expression with no syscalls; returns the value. *)
let eval ?(funcs = []) ?(argv = []) ?(fuel = 1_000_000) e =
  let st = Interp.start (prog ~name:"/t" ~funcs e) ~argv in
  match Interp.run st ~fuel with
  | Interp.Finished v -> v
  | Interp.Fault m -> Alcotest.failf "fault: %s" m
  | Interp.Syscall (n, _, _) -> Alcotest.failf "unexpected syscall %s" n
  | Interp.Running _ -> Alcotest.fail "out of fuel"
  | Interp.Compute _ -> Alcotest.fail "unexpected compute"

let eval_int ?funcs ?argv e = Ast.as_int (eval ?funcs ?argv e)
let eval_str ?funcs ?argv e = Ast.as_str (eval ?funcs ?argv e)

let eval_fault ?(funcs = []) e =
  let st = Interp.start (prog ~name:"/t" ~funcs e) ~argv:[] in
  match Interp.run st ~fuel:100_000 with
  | Interp.Fault _ -> ()
  | _ -> Alcotest.fail "expected a guest fault"

let arith_tests =
  [ case "integer arithmetic" (fun () ->
        check_int "add" 7 (eval_int (int 3 +% int 4));
        check_int "sub" (-1) (eval_int (int 3 -% int 4));
        check_int "mul" 12 (eval_int (int 3 *% int 4));
        check_int "div" 3 (eval_int (int 13 /% int 4));
        check_int "mod" 1 (eval_int (int 13 %% int 4)));
    case "division by zero faults" (fun () ->
        eval_fault (int 1 /% int 0);
        eval_fault (int 1 %% int 0));
    case "comparisons" (fun () ->
        Util.check_bool "lt" true (Ast.as_bool (eval (int 1 <% int 2)));
        Util.check_bool "ge" false (Ast.as_bool (eval (int 1 >=% int 2)));
        Util.check_bool "eq strings" true (Ast.as_bool (eval (str "a" =% str "a")));
        Util.check_bool "ne" true (Ast.as_bool (eval (int 1 <>% int 2))));
    case "string operations" (fun () ->
        Util.check_str "concat" "ab" (eval_str (str "a" ^% str "b"));
        check_int "len" 5 (eval_int (len (str "hello")));
        Util.check_str "repeat" "xxx" (eval_str (repeat (str "x") (int 3)));
        Util.check_bool "starts_with" true
          (Ast.as_bool (eval (starts_with (str "/bin/ls") (str "/bin"))));
        Util.check_str "str_of_int" "42" (eval_str (str_of_int (int 42)));
        check_int "int_of_str" (-7) (eval_int (int_of_str (str " -7 "))));
    case "malformed number faults" (fun () -> eval_fault (int_of_str (str "zap")));
    case "split" (fun () ->
        match eval (split (str "a b  c") (str " ")) with
        | Ast.Vlist [ Ast.Vstr "a"; Ast.Vstr "b"; Ast.Vstr ""; Ast.Vstr "c" ] -> ()
        | v -> Alcotest.failf "got %s" (Ast.value_to_string v));
    case "nth bounds fault" (fun () -> eval_fault (nth (list_ [ int 1 ]) (int 3)));
    case "nth with a negative index faults" (fun () ->
        eval_fault (nth (list_ [ int 1 ]) (int (-1))));
    case "repeat for every operand length" (fun () ->
        Util.check_str "len 0" "" (eval_str (repeat (str "") (int 5)));
        Util.check_str "len 0, huge count" "" (eval_str (repeat (str "") (int max_int)));
        Util.check_str "len 1" "xxxx" (eval_str (repeat (str "x") (int 4)));
        Util.check_str "len 3" "abcabcabc" (eval_str (repeat (str "abc") (int 3)));
        Util.check_str "n = 0" "" (eval_str (repeat (str "abc") (int 0)));
        check_int "64 KiB chunk" 65536 (eval_int (len (repeat (str "w") (int 65536)))));
    case "repeat past the string limit faults" (fun () ->
        eval_fault (repeat (str "ab") (int max_int));
        eval_fault (repeat (str "x") (int max_int));
        eval_fault (repeat (str "abc") (int (Sys.max_string_length / 3 + 1)));
        eval_fault (repeat (str "x") (int (-1)))) ]

let control_tests =
  [ case "let binds lexically" (fun () ->
        check_int "shadowing" 3
          (eval_int (let_ "x" (int 1) (let_ "x" (int 2) (v "x" +% int 1)))));
    case "set mutates the nearest binding" (fun () ->
        check_int "seq" 10
          (eval_int (let_ "x" (int 1) (seq [ set "x" (int 10); v "x" ]))));
    case "unbound variable faults" (fun () -> eval_fault (v "ghost"));
    case "if takes the right branch" (fun () ->
        check_int "then" 1 (eval_int (if_ (bool true) (int 1) (int 2)));
        check_int "else" 2 (eval_int (if_ (bool false) (int 1) (int 2))));
    case "while accumulates" (fun () ->
        check_int "sum 1..10" 55
          (eval_int
             (let_ "s" (int 0)
                (let_ "i" (int 1)
                   (seq
                      [ while_
                          (v "i" <=% int 10)
                          (seq [ set "s" (v "s" +% v "i"); set "i" (v "i" +% int 1) ]);
                        v "s" ])))));
    case "for_ is inclusive" (fun () ->
        check_int "3+4+5" 12
          (eval_int
             (let_ "s" (int 0)
                (seq [ for_ "i" (int 3) (int 5) (set "s" (v "s" +% v "i")); v "s" ]))));
    case "short-circuit and" (fun () ->
        (* the right side would fault if evaluated *)
        Util.check_bool "false" false
          (Ast.as_bool (eval (bool false &&% (int 1 /% int 0 =% int 0)))));
    case "short-circuit or" (fun () ->
        Util.check_bool "true" true
          (Ast.as_bool (eval (bool true ||% (int 1 /% int 0 =% int 0)))));
    case "foreach visits every element" (fun () ->
        check_int "sum" 6
          (eval_int
             (let_ "s" (int 0)
                (seq
                   [ foreach "x" (list_ [ int 1; int 2; int 3 ]) (set "s" (v "s" +% v "x"));
                     v "s" ]))));
    case "match_list destructures" (fun () ->
        check_int "cons" 1
          (eval_int
             (match_list (list_ [ int 1; int 2 ]) ~nil:(int 0) ~cons:("h", "t", v "h")));
        check_int "nil" 0 (eval_int (match_list (list_ []) ~nil:(int 0) ~cons:("h", "t", v "h")))) ]

let func_tests =
  [ case "function call with arguments" (fun () ->
        check_int "add3" 6
          (eval_int
             ~funcs:[ func "add3" [ "a"; "b"; "c" ] (v "a" +% v "b" +% v "c") ]
             (call "add3" [ int 1; int 2; int 3 ])));
    case "recursion" (fun () ->
        let fact =
          func "fact" [ "n" ]
            (if_ (v "n" <=% int 1) (int 1) (v "n" *% call "fact" [ v "n" -% int 1 ]))
        in
        check_int "5!" 120 (eval_int ~funcs:[ fact ] (call "fact" [ int 5 ])));
    case "functions do not see caller locals" (fun () ->
        eval_fault
          ~funcs:[ func "peek" [] (v "secret") ]
          (let_ "secret" (int 42) (call "peek" [])));
    case "wrong arity faults" (fun () ->
        eval_fault ~funcs:[ func "f" [ "a" ] (v "a") ] (call "f" [ int 1; int 2 ]));
    case "undefined function faults" (fun () -> eval_fault (call "nope" []));
    case "argv is bound" (fun () ->
        Util.check_str "argv0" "alpha"
          (eval_str ~argv:[ "alpha"; "beta" ] (Ast.as_str (Ast.Vstr "") |> fun _ -> head (v "argv")))) ]

let syscall_tests =
  [ case "syscall suspends with evaluated args" (fun () ->
        let st = Interp.start (prog ~name:"/t" (sys "write" [ int 1 +% int 1; str "hi" ])) ~argv:[] in
        match Interp.run st ~fuel:1000 with
        | Interp.Syscall ("write", [ Ast.Vint 2; Ast.Vstr "hi" ], _) -> ()
        | _ -> Alcotest.fail "expected suspension");
    case "resume provides the result" (fun () ->
        let st = Interp.start (prog ~name:"/t" (sys "getpid" [] +% int 1)) ~argv:[] in
        (match Interp.run st ~fuel:1000 with
        | Interp.Syscall ("getpid", [], st') -> (
          match Interp.run (Interp.resume st' (Ast.Vint 41)) ~fuel:1000 with
          | Interp.Finished (Ast.Vint 42) -> ()
          | _ -> Alcotest.fail "wrong result")
        | _ -> Alcotest.fail "expected suspension"));
    case "resume on a running machine is rejected" (fun () ->
        let st = Interp.start (prog ~name:"/t" (int 1)) ~argv:[] in
        Alcotest.check_raises "invalid"
          (Invalid_argument "Interp.resume: machine is not awaiting a syscall result")
          (fun () -> ignore (Interp.resume st (Ast.Vint 0))));
    case "spin reports compute units" (fun () ->
        let st = Interp.start (prog ~name:"/t" (spin (int 5000))) ~argv:[] in
        match Interp.run st ~fuel:1000 with
        | Interp.Compute (5000, _) -> ()
        | _ -> Alcotest.fail "expected compute");
    case "negative spin faults" (fun () -> eval_fault (spin (int (-1)))) ]

(* The property that makes fork work: a suspended machine resumed twice
   with different values yields two independent executions. *)
let fork_semantics_tests =
  [ case "one machine, two futures" (fun () ->
        let program =
          prog ~name:"/t" (let_ "r" (sys "fork" []) (v "r" *% int 100))
        in
        let st = Interp.start program ~argv:[] in
        match Interp.run st ~fuel:1000 with
        | Interp.Syscall ("fork", [], st') ->
          let parent = Interp.resume st' (Ast.Vint 7) in
          let child = Interp.resume st' (Ast.Vint 0) in
          (match (Interp.run parent ~fuel:1000, Interp.run child ~fuel:1000) with
          | Interp.Finished (Ast.Vint 700), Interp.Finished (Ast.Vint 0) -> ()
          | _ -> Alcotest.fail "executions not independent")
        | _ -> Alcotest.fail "expected fork suspension");
    case "mutations do not leak between copies" (fun () ->
        let program =
          prog ~name:"/t"
            (let_ "x" (int 1)
               (let_ "r" (sys "fork" []) (seq [ set "x" (v "x" +% v "r"); v "x" ])))
        in
        let st = Interp.start program ~argv:[] in
        match Interp.run st ~fuel:1000 with
        | Interp.Syscall ("fork", [], st') ->
          let a = Interp.resume st' (Ast.Vint 10) in
          let b = Interp.resume st' (Ast.Vint 20) in
          (match (Interp.run a ~fuel:1000, Interp.run b ~fuel:1000) with
          | Interp.Finished (Ast.Vint 11), Interp.Finished (Ast.Vint 21) -> ()
          | _ -> Alcotest.fail "store leaked")
        | _ -> Alcotest.fail "expected fork suspension") ]

let serialize_tests =
  [ case "to_bytes/of_bytes round trip mid-execution" (fun () ->
        let program =
          prog ~name:"/t" (let_ "a" (int 5) (let_ "b" (sys "getpid" []) (v "a" +% v "b")))
        in
        let st = Interp.start program ~argv:[] in
        (match Interp.run st ~fuel:1000 with
        | Interp.Syscall ("getpid", [], st') ->
          let st'' = Interp.of_bytes (Interp.to_bytes st') in
          (match Interp.run (Interp.resume st'' (Ast.Vint 37)) ~fuel:1000 with
          | Interp.Finished (Ast.Vint 42) -> ()
          | _ -> Alcotest.fail "round trip lost state")
        | _ -> Alcotest.fail "expected suspension"));
    case "of_bytes rejects garbage" (fun () ->
        Alcotest.check_raises "corrupt" (Failure "Interp.of_bytes: corrupt machine image")
          (fun () -> ignore (Interp.of_bytes "not a machine")));
    case "state_size is positive and grows with the store" (fun () ->
        let small = Interp.start (prog ~name:"/t" (int 1)) ~argv:[] in
        let big =
          Interp.start (prog ~name:"/t" (let_ "x" (str (String.make 10_000 'x')) (int 1))) ~argv:[]
        in
        (* run big until the string is in the store *)
        let big =
          match Interp.run big ~fuel:10 with Interp.Running st -> st | _ -> big
        in
        Util.check_bool "grows" true (Interp.state_size big > Interp.state_size small)) ]

let interrupt_tests =
  [ case "interrupt runs the handler then continues" (fun () ->
        let program =
          prog ~name:"/t"
            ~funcs:[ func "h" [ "sig" ] unit ]
            (let_ "x" (sys "getpid" []) (v "x" +% int 1))
        in
        let st = Interp.start program ~argv:[] in
        (match Interp.run st ~fuel:1000 with
        | Interp.Syscall ("getpid", [], st') ->
          let resumed = Interp.resume st' (Ast.Vint 10) in
          let interrupted = Interp.interrupt resumed ~func:"h" ~args:[ Ast.Vint 10 ] in
          (match Interp.run interrupted ~fuel:1000 with
          | Interp.Finished (Ast.Vint 11) -> ()
          | _ -> Alcotest.fail "handler broke the continuation")
        | _ -> Alcotest.fail "expected suspension"));
    case "interrupt with unknown handler faults" (fun () ->
        let st = Interp.start (prog ~name:"/t" (int 1)) ~argv:[] in
        Alcotest.check_raises "no handler" (Ast.Guest_fault "interrupt: no such handler nope")
          (fun () -> ignore (Interp.interrupt st ~func:"nope" ~args:[])));
    case "exec replaces the image" (fun () ->
        let st = Interp.start (prog ~name:"/old" (int 1)) ~argv:[] in
        let st' = Interp.exec st (prog ~name:"/new" (int 9)) ~argv:[ "z" ] in
        Util.check_str "name" "/new" (Interp.program_name st');
        match Interp.run st' ~fuel:100 with
        | Interp.Finished (Ast.Vint 9) -> ()
        | _ -> Alcotest.fail "new image did not run") ]

let stacks = Alcotest.(check (list string))

let call_stack_tests =
  [ case "a fresh machine's stack is main" (fun () ->
        let st = Interp.start (prog ~name:"/t" (int 1)) ~argv:[] in
        stacks "initial" [ "main" ] (Interp.call_stack st));
    case "calls push and returns pop" (fun () ->
        (* suspend inside g (called from f, called from main), then
           resume and check the frames unwound *)
        let program =
          prog ~name:"/t"
            ~funcs:
              [ func "f" [ "x" ] (call "g" [ v "x" ]);
                func "g" [ "x" ] (sys "getpid" [] +% v "x") ]
            (call "f" [ int 1 ])
        in
        let st = Interp.start program ~argv:[] in
        (match Interp.run st ~fuel:1000 with
        | Interp.Syscall ("getpid", [], st') ->
          stacks "at syscall" [ "main"; "f"; "g" ] (Interp.call_stack st');
          (match Interp.run (Interp.resume st' (Ast.Vint 41)) ~fuel:1000 with
          | Interp.Finished (Ast.Vint 42) -> ()
          | _ -> Alcotest.fail "bad result")
        | _ -> Alcotest.fail "expected suspension"));
    case "interrupt handlers appear on the stack and unwind" (fun () ->
        (* the handler frame is pushed when the injected Call
           dispatches, so observe the stack from inside the handler (at
           its syscall), then check the continuation still unwinds *)
        let program =
          prog ~name:"/t"
            ~funcs:[ func "h" [ "sig" ] (sys "print" [ str "x" ]) ]
            (let_ "x" (sys "getpid" []) (v "x" +% int 1))
        in
        let st = Interp.start program ~argv:[] in
        (match Interp.run st ~fuel:1000 with
        | Interp.Syscall ("getpid", [], st') ->
          let interrupted =
            Interp.interrupt (Interp.resume st' (Ast.Vint 10)) ~func:"h" ~args:[ Ast.Vint 10 ]
          in
          (match Interp.run interrupted ~fuel:1000 with
          | Interp.Syscall ("print", _, st'') ->
            stacks "inside handler" [ "main"; "h" ] (Interp.call_stack st'');
            (match Interp.run (Interp.resume st'' Ast.Vunit) ~fuel:1000 with
            | Interp.Finished (Ast.Vint 11) -> ()
            | _ -> Alcotest.fail "handler broke the continuation")
          | _ -> Alcotest.fail "expected handler syscall")
        | _ -> Alcotest.fail "expected suspension"));
    case "let and match scopes do not disturb the stack" (fun () ->
        let program =
          prog ~name:"/t"
            ~funcs:
              [ func "f" [ "l" ]
                  (match_list (v "l") ~nil:(sys "getpid" [])
                     ~cons:("h", "t", let_ "y" (v "h") (call "f" [ v "t" ]))) ]
            (call "f" [ list_ [ int 1; int 2 ] ])
        in
        let st = Interp.start program ~argv:[] in
        match Interp.run st ~fuel:1000 with
        | Interp.Syscall ("getpid", [], st') ->
          (* two recursive calls deep, nested in match/let scopes *)
          stacks "recursion only" [ "main"; "f"; "f"; "f" ] (Interp.call_stack st')
        | _ -> Alcotest.fail "expected suspension") ]

(* Random arithmetic expressions evaluate like OCaml. *)
let arith_prop =
  let gen =
    QCheck.Gen.(
      sized_size (int_range 1 6) (fun n ->
          fix
            (fun self n ->
              if n = 0 then map (fun i -> `Lit i) (int_range (-100) 100)
              else
                frequency
                  [ (1, map (fun i -> `Lit i) (int_range (-100) 100));
                    (2, map2 (fun a b -> `Add (a, b)) (self (n / 2)) (self (n / 2)));
                    (2, map2 (fun a b -> `Sub (a, b)) (self (n / 2)) (self (n / 2)));
                    (2, map2 (fun a b -> `Mul (a, b)) (self (n / 2)) (self (n / 2))) ])
            n))
  in
  let rec to_expr = function
    | `Lit i -> int i
    | `Add (a, b) -> to_expr a +% to_expr b
    | `Sub (a, b) -> to_expr a -% to_expr b
    | `Mul (a, b) -> to_expr a *% to_expr b
  in
  let rec to_ocaml = function
    | `Lit i -> i
    | `Add (a, b) -> to_ocaml a + to_ocaml b
    | `Sub (a, b) -> to_ocaml a - to_ocaml b
    | `Mul (a, b) -> to_ocaml a * to_ocaml b
  in
  QCheck.Test.make ~name:"guest arithmetic agrees with OCaml" ~count:200
    (QCheck.make gen) (fun t -> eval_int (to_expr t) = to_ocaml t)

(* Serialization round trip at arbitrary points of execution. *)
let roundtrip_prop =
  QCheck.Test.make ~name:"serialize/deserialize preserves the next steps" ~count:50
    QCheck.(int_range 0 60)
    (fun steps ->
      let program =
        prog ~name:"/t"
          (let_ "s" (int 0)
             (seq [ for_ "i" (int 1) (int 10) (set "s" (v "s" +% v "i")); v "s" ]))
      in
      let st = ref (Interp.start program ~argv:[]) in
      let rec advance n =
        if n > 0 then
          match Interp.step !st with
          | Interp.Running st' ->
            st := st';
            advance (n - 1)
          | _ -> ()
      in
      advance steps;
      let copy = Interp.of_bytes (Interp.to_bytes !st) in
      let finish st =
        match Interp.run st ~fuel:100_000 with
        | Interp.Finished v -> Some v
        | _ -> None
      in
      finish !st = finish copy)

let edge_tests =
  [ case "nested interrupts unwind in order" (fun () ->
        (* inject h1, then h2 on top: h2 runs, then h1, then the
           original continuation *)
        let program =
          prog ~name:"/t"
            ~funcs:
              [ func "h1" [ "x" ] unit; func "h2" [ "x" ] unit ]
            (let_ "a" (sys "probe" []) (v "a" +% int 1))
        in
        let st = Interp.start program ~argv:[] in
        (match Interp.run st ~fuel:100 with
        | Interp.Syscall ("probe", [], st') ->
          let st1 = Interp.resume st' (Ast.Vint 10) in
          let st2 = Interp.interrupt st1 ~func:"h1" ~args:[ Ast.Vint 1 ] in
          let st3 = Interp.interrupt st2 ~func:"h2" ~args:[ Ast.Vint 2 ] in
          (match Interp.run st3 ~fuel:1000 with
          | Interp.Finished (Ast.Vint 11) -> ()
          | _ -> Alcotest.fail "nested handlers broke the continuation")
        | _ -> Alcotest.fail "expected suspension"));
    case "deep recursion stays within the store" (fun () ->
        let sum =
          func "sum" [ "n" ]
            (if_ (v "n" =% int 0) (int 0) (v "n" +% call "sum" [ v "n" -% int 1 ]))
        in
        check_int "sum 500" 125250 (eval_int ~funcs:[ sum ] (call "sum" [ int 500 ])));
    case "argv is empty-safe" (fun () ->
        Util.check_bool "empty" true (Ast.as_bool (eval ~argv:[] (is_empty (v "argv")))));
    case "exec resets step counters" (fun () ->
        let st = Interp.start (prog ~name:"/a" (spin (int 5))) ~argv:[] in
        let st = match Interp.run st ~fuel:3 with Interp.Running s -> s | _ -> st in
        let st' = Interp.exec st (prog ~name:"/b" (int 1)) ~argv:[] in
        check_int "reset" 0 (Interp.steps_executed st'));
    case "foreach over an empty list does nothing" (fun () ->
        check_int "untouched" 7
          (eval_int (let_ "x" (int 7) (seq [ foreach "e" (list_ []) (set "x" (int 0)); v "x" ]))));
    case "while guards re-evaluate each iteration" (fun () ->
        check_int "bounded" 3
          (eval_int
             (let_ "n" (int 0)
                (seq [ while_ (v "n" <% int 3) (set "n" (v "n" +% int 1)); v "n" ]))));
    case "repeat with zero count is empty" (fun () ->
        Util.check_str "empty" "" (eval_str (repeat (str "ab") (int 0))));
    case "split with multi-char separator" (fun () ->
        match eval (split (str "a--b--c") (str "--")) with
        | Ast.Vlist [ Ast.Vstr "a"; Ast.Vstr "b"; Ast.Vstr "c" ] -> ()
        | v -> Alcotest.failf "got %s" (Ast.value_to_string v)) ]

(* {1 Step accounting}

   [run ~fuel:k] writes the step count once, into the state it returns;
   it must agree with [k] single [step]s on the count and the status,
   however the run ends. *)

let rec step_n st k =
  if k = 0 then Interp.Running st
  else
    match Interp.step st with
    | Interp.Running st' -> step_n st' (k - 1)
    | other -> other

let status_shape = function
  | Interp.Running st -> Printf.sprintf "running @%d" (Interp.steps_executed st)
  | Interp.Compute (n, st) -> Printf.sprintf "compute %d @%d" n (Interp.steps_executed st)
  | Interp.Syscall (name, args, st) ->
    Printf.sprintf "syscall %s/%d @%d" name (List.length args) (Interp.steps_executed st)
  | Interp.Finished v -> "finished " ^ Ast.value_to_string v
  | Interp.Fault m -> "fault " ^ m

(* The shape plus a digest of the machine image, where there is one. *)
let status_image status =
  let image st = Digest.to_hex (Digest.string (Interp.to_bytes st)) in
  match status with
  | Interp.Running st | Interp.Compute (_, st) | Interp.Syscall (_, _, st) ->
    status_shape status ^ " " ^ image st
  | Interp.Finished _ | Interp.Fault _ -> status_shape status

let check_run_matches_steps label st =
  List.iter
    (fun k ->
      Util.check_str
        (Printf.sprintf "%s, fuel %d" label k)
        (status_image (step_n st k))
        (status_image (Interp.run st ~fuel:k)))
    [ 0; 1; 2; 3; 5; 8; 13; 40; 1000 ]

let step_count_tests =
  let start e = Interp.start (prog ~name:"/t" e) ~argv:[] in
  let ends_in label e expected =
    let st = start e in
    Util.check_bool (label ^ " ends as expected") true
      (String.starts_with ~prefix:expected (status_shape (Interp.run st ~fuel:1000)));
    check_run_matches_steps label st
  in
  [ case "run ~fuel:k agrees with k steps" (fun () ->
        ends_in "out of fuel"
          (let_ "i" (int 0) (while_ (int 1) (set "i" (v "i" +% int 1))))
          "running";
        ends_in "syscall" (let_ "x" (int 1 +% int 2) (sys "probe" [ v "x"; int 4 ])) "syscall";
        ends_in "compute" (seq [ int 1 +% int 1; spin (int 9); int 0 ]) "compute";
        ends_in "finished" (let_ "x" (int 1 +% int 2) (v "x" *% int 2)) "finished";
        ends_in "fault" (int 1 +% (int 2 /% int 0)) "fault");
    case "step counts carry across resume" (fun () ->
        let e = let_ "a" (sys "probe" []) (seq [ spin (int 3); v "a" +% int 1 ]) in
        match Interp.run (start e) ~fuel:1000 with
        | Interp.Syscall ("probe", [], st) ->
          let resumed = Interp.resume st (Ast.Vint 1) in
          check_int "resume keeps the count" (Interp.steps_executed st)
            (Interp.steps_executed resumed);
          (match Interp.step resumed with
          | Interp.Running st' ->
            check_int "step adds one" (Interp.steps_executed st + 1) (Interp.steps_executed st')
          | s -> Alcotest.failf "expected running, got %s" (status_shape s));
          check_run_matches_steps "resumed" resumed
        | s -> Alcotest.failf "expected probe, got %s" (status_shape s));
    case "a machine awaiting a syscall result takes no step" (fun () ->
        let program = prog ~name:"/t" ~funcs:[ func "h" [ "s" ] (v "s") ] (sys "probe" []) in
        match Interp.run (Interp.start program ~argv:[]) ~fuel:1000 with
        | Interp.Syscall ("probe", [], st) -> (
          let awaiting = Invalid_argument "Interp.step: machine is awaiting a syscall result" in
          Alcotest.check_raises "step" awaiting (fun () -> ignore (Interp.step st));
          Util.check_str "no fuel" (status_image (Interp.Running st))
            (status_image (Interp.run st ~fuel:0));
          (* a handler injected into the wait runs, then the machine is
             back in the wait: fuel that ends there returns it, one
             more step is rejected *)
          let handled = Interp.interrupt st ~func:"h" ~args:[ Ast.Vint 1 ] in
          let rec to_wait st n =
            match Interp.step st with
            | Interp.Running st' -> to_wait st' (n + 1)
            | exception Invalid_argument _ -> (st, n)
            | s -> Alcotest.failf "expected the wait, got %s" (status_shape s)
          in
          let waiting, n = to_wait handled 0 in
          Util.check_str "fuel ends at the wait" (status_image (Interp.Running waiting))
            (status_image (Interp.run handled ~fuel:n));
          Alcotest.check_raises "one more step" awaiting (fun () ->
              ignore (Interp.run handled ~fuel:(n + 1)));
          match Interp.run (Interp.resume waiting (Ast.Vint 5)) ~fuel:1000 with
          | Interp.Finished (Ast.Vint 5) -> ()
          | s -> Alcotest.failf "expected 5, got %s" (status_shape s))
        | s -> Alcotest.failf "expected probe, got %s" (status_shape s)) ]

(* {1 Pinned machine images}

   The interpreter's cost model charges per step, and fork and
   migration charge per byte of [to_bytes]; the images at each stop
   must not change with the interpreter's implementation. Each program
   is driven with stubbed syscall results and a small fuel, so fuel
   boundaries fall all over the program; every stop contributes its
   kind, step count and the MD5 of its image to one digest. *)

let image_trace program ~argv ~text =
  let trace = Buffer.create 4096 and reads = ref 0 and pids = ref 100 and syscalls = ref 0 in
  let note kind st =
    Printf.bprintf trace "%s@%d:%s\n" kind (Interp.steps_executed st)
      (Digest.to_hex (Digest.string (Interp.to_bytes st)))
  in
  let answer = function
    | "read" ->
      incr reads;
      Ast.Vstr (if !reads = 1 then text else "")
    | "fork" ->
      incr pids;
      Ast.Vint !pids
    | "wait" -> Ast.Vint !pids
    | "mmap" -> Ast.Vint 0x100000
    | "pipe" -> Ast.Vpair (Ast.Vint 4, Ast.Vint 5)
    | _ -> Ast.Vint 3
  in
  let rec go st =
    match Interp.run st ~fuel:97 with
    | Interp.Syscall (name, _, st') ->
      incr syscalls;
      note name st';
      if name <> "exit" then go (Interp.resume st' (answer name))
      else Interp.steps_executed st'
    | Interp.Running st' ->
      note "fuel" st';
      go st'
    | Interp.Compute (n, st') ->
      note (Printf.sprintf "compute %d" n) st';
      go st'
    | Interp.Finished _ -> Alcotest.fail "finished without exit"
    | Interp.Fault m -> Alcotest.failf "fault: %s" m
  in
  let steps = go (Interp.start program ~argv) in
  Printf.sprintf "%d syscalls, %d steps, %s" !syscalls steps
    (Digest.to_hex (Digest.string (Buffer.contents trace)))

let pinned_image_tests =
  let pin name expected program ~argv ~text =
    case ("machine images of " ^ name ^ " are pinned") (fun () ->
        Util.check_str name expected (image_trace program ~argv ~text))
  in
  [ pin "/bin/cc" "127 syscalls, 3765 steps, d44cc222e4602be5d99f522bc79fafd8"
      Graphene_apps.Compile.cc ~argv:[ "/src/f1.c"; "/src/f1.o" ]
      ~text:"WORK 5000 PROBES 40\n/////";
    pin "/bin/make" "11 syscalls, 636 steps, 6d621bd9e92e32f7b263a3e60adc463f"
      Graphene_apps.Compile.make ~argv:[ "/src/make.manifest"; "2" ]
      ~text:"/src/f1.c /src/f1.o\n/src/f2.c /src/f2.o\n\n/src/f3.c  /src/f3.o\n";
    pin "/bin/sh" "25 syscalls, 2825 steps, aa726d9016b29e398c0268db5cfd4348"
      Graphene_apps.Shell.sh ~argv:[ "/script.sh" ]
      ~text:
        "echo hello  world\nls /tmp &\ncat /etc/motd &\nwait\n# comment\ncd /tmp\n\
         cat a.txt | wc\necho x > out.txt\nsort < in.txt >> out.txt\ndate &\n" ]

(* {1 Host cost of a step}

   A step allocates the frame it pushes and the values it makes, and
   nothing for the machine itself: the minor-heap words a plain
   counting loop allocates, per step, stay under a small bound. *)

let alloc_tests =
  [ case "a counting loop allocates at most 8 words per step" (fun () ->
        let loop = let_ "i" (int 0) (while_ (v "i" <% int 10_000) (set "i" (v "i" +% int 1))) in
        let st = Interp.start (prog ~name:"/t" (seq [ loop; sys "done" [] ])) ~argv:[] in
        let before = Gc.minor_words () in
        match Interp.run st ~fuel:10_000_000 with
        | Interp.Syscall ("done", [], st') ->
          let words = Gc.minor_words () -. before in
          let per_step = words /. float_of_int (Interp.steps_executed st') in
          if per_step > 8.0 then Alcotest.failf "%.1f words per step" per_step
        | s -> Alcotest.failf "expected the done syscall, got %s" (status_shape s)) ]

(* {1 Scope lifetime}

   A binding lives until its scope ends; the machine image a checkpoint
   ships carries only live bindings. [state_size] also encodes the step
   counter, whose Marshal width grows at 64, 128 and 32768 steps, so
   each program first runs a warm-up loop that puts the count past 128
   before anything is measured. *)

let warm_up e = seq [ for_ "w" (int 1) (int 40) unit; e ]

(* Drive a machine to its end, answering syscalls with [answer]; a
   machine that exits or finishes stops the drive. *)
let drive st answer =
  let rec go st =
    match Interp.run st ~fuel:1_000_000 with
    | Interp.Syscall ("exit", _, _) | Interp.Finished _ -> ()
    | Interp.Syscall (name, args, st') -> go (Interp.resume st' (answer name args st'))
    | Interp.Running st' | Interp.Compute (_, st') -> go st'
    | Interp.Fault m -> Alcotest.failf "fault: %s" m
  in
  go st

let scope_tests =
  [ case "a loop that binds in its body keeps a constant image" (fun () ->
        let body = let_ "x" (sys "probe" []) (let_ "y" (v "x" +% int 1) unit) in
        let program = prog ~name:"/t" (warm_up (while_ (sys "more" []) body)) in
        let sizes = ref [] and iters = ref 0 in
        drive (Interp.start program ~argv:[]) (fun name _ st ->
            match name with
            | "more" ->
              incr iters;
              Ast.Vbool (!iters <= 1000)
            | _ ->
              sizes := Interp.state_size st :: !sizes;
              Ast.Vint 7);
        let sizes = List.rev !sizes in
        check_int "probes" 1000 (List.length sizes);
        check_int "1st vs 1000th" (List.hd sizes) (List.nth sizes 999));
    case "the shell's fork image does not grow with the script" (fun () ->
        (* 60 lines: ten rounds of the six Unix utilities; each command
           forks with the same live bindings every round *)
        let script = Graphene_apps.Shell.utils_script ~iterations:10 in
        let unread = ref true and forks = ref [] in
        drive
          (Interp.start Graphene_apps.Shell.sh ~argv:[ "/script.sh" ])
          (fun name _ st ->
            match name with
            | "read" ->
              let text = if !unread then script else "" in
              unread := false;
              Ast.Vstr text
            | "fork" ->
              forks := Interp.state_size st :: !forks;
              Ast.Vint 42
            | _ -> Ast.Vint 3);
        let forks = Array.of_list (List.rev !forks) in
        check_int "one fork per line" 60 (Array.length forks);
        Array.iteri
          (fun i size -> check_int (Printf.sprintf "fork %d" i) forks.(i mod 6) size)
          forks);
    case "an interrupt's bindings end with its handler" (fun () ->
        let program =
          prog ~name:"/t"
            ~funcs:
              [ func "h" [ "sig" ] (let_ "t" (v "sig" *% int 2) (call "g" [ v "t" ]));
                func "g" [ "x" ] (let_ "u" (v "x" +% int 1) (sys "note" [ v "u" ])) ]
            (warm_up
               (let_ "a" (int 5)
                  (let_ "b" (str "bee")
                     (let_ "c" (sys "probe" []) (sys "after" [ v "a"; v "b"; v "c" ])))))
        in
        match Interp.run (Interp.start program ~argv:[]) ~fuel:10_000 with
        | Interp.Syscall ("probe", [], st) -> (
          let before = Interp.resume st (Ast.Vint 7) in
          let size = Interp.state_size before in
          match Interp.run (Interp.interrupt before ~func:"h" ~args:[ Ast.Vint 3 ]) ~fuel:1000 with
          | Interp.Syscall ("note", [ Ast.Vint 7 ], st) ->
            Util.check_bool "handler bindings are live" true (Interp.state_size st > size);
            (* step until the handler's frame pops, then once more to
               leave its resume frame: the machine is back where the
               interrupt found it *)
            let rec back st =
              match Interp.step st with
              | Interp.Running st' when Interp.call_stack st' = [ "main" ] -> (
                match Interp.step st' with
                | Interp.Running st'' -> st''
                | _ -> Alcotest.fail "expected the resume step")
              | Interp.Running st' -> back st'
              | _ -> Alcotest.fail "handler did not return"
            in
            let after = back (Interp.resume st Ast.Vunit) in
            check_int "image as before the interrupt" size (Interp.state_size after);
            (match Interp.run after ~fuel:1000 with
            | Interp.Syscall ("after", [ Ast.Vint 5; Ast.Vstr "bee"; Ast.Vint 7 ], _) -> ()
            | _ -> Alcotest.fail "outer bindings changed")
          | _ -> Alcotest.fail "expected the handler's syscall")
        | _ -> Alcotest.fail "expected suspension") ]

let suite =
  arith_tests @ control_tests @ func_tests @ syscall_tests @ fork_semantics_tests
  @ serialize_tests @ interrupt_tests @ call_stack_tests @ edge_tests @ step_count_tests
  @ scope_tests @ pinned_image_tests @ alloc_tests
  @ List.map QCheck_alcotest.to_alcotest [ arith_prop; roundtrip_prop ]
