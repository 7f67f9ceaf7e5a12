(** Differential testing: the same randomly generated workloads must
    behave identically (modulo timing digits) on the native-Linux
    personality and on Graphene — the cross-stack equivalence that
    makes the performance comparison meaningful. *)

open Util
module B = Graphene_guest.Builder
module Rng = Graphene_sim.Rng

(* {1 Random shell scripts}

   Commands draw from the installed utility set; every generated
   script is deterministic given its seed. *)

let gen_script rng =
  let lines = Buffer.create 256 in
  let n = Rng.int_in rng 3 10 in
  let jobs = ref 0 in
  for _ = 1 to n do
    (match Rng.int rng 11 with
    | 0 -> Buffer.add_string lines "echo one two three\n"
    | 1 -> Buffer.add_string lines "cp /tmp/f.txt /tmp/g.txt\n"
    | 2 -> Buffer.add_string lines "cat /tmp/f.txt\n"
    | 3 -> Buffer.add_string lines "ls /tmp\n"
    | 4 -> Buffer.add_string lines "cat /tmp/f.txt | wc\n"
    | 5 -> Buffer.add_string lines "echo alpha beta | wc\n"
    | 6 ->
      incr jobs;
      Buffer.add_string lines "busywork &\n"
    | 7 -> Buffer.add_string lines "echo red shift > /tmp/r.txt\n"
    | 8 -> Buffer.add_string lines "echo more >> /tmp/r.txt\n"
    | 9 -> Buffer.add_string lines "wc < /tmp/f.txt\n"
    | _ -> Buffer.add_string lines "rm /tmp/g.txt\n");
    (* occasionally reap outstanding jobs *)
    if !jobs > 0 && Rng.int rng 3 = 0 then begin
      Buffer.add_string lines "wait\n";
      jobs := 0
    end
  done;
  if !jobs > 0 then Buffer.add_string lines "wait\n";
  Buffer.add_string lines "echo end-of-script\n";
  Buffer.contents lines

(* Strip digits: `ls` output and timing-dependent values may differ,
   the shape of the output must not. *)
let normalize out =
  String.to_seq out
  |> Seq.filter (fun c -> not (c >= '0' && c <= '9'))
  |> String.of_seq

let run_script stack script =
  let r =
    run_on ~stack
      ~setup:(fun w ->
        Graphene_apps.Install.script (W.kernel w).K.fs ~path:"/tmp/fuzz.sh" ~contents:script)
      ~exe:"/bin/sh" ~argv:[ "/tmp/fuzz.sh" ] ()
  in
  (W.exited r.p, W.exit_code r.p, normalize (r.out ()))

let shell_prop =
  QCheck.Test.make ~name:"random shell scripts agree across stacks" ~count:25
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let script = gen_script (Rng.create ~seed) in
      let e1, c1, o1 = run_script W.Linux script in
      let e2, c2, o2 = run_script W.Graphene script in
      if not (e1 && e2 && c1 = c2 && o1 = o2) then
        QCheck.Test.fail_reportf
          "script diverged (seed %d):\n%s\nlinux: exit=%b/%d out=%S\ngraphene: exit=%b/%d out=%S"
          seed script e1 c1 o1 e2 c2 o2
      else true)

(* {1 Random file-system operation sequences} *)

type fs_op =
  | Write of string * string
  | Append of string * string
  | Remove of string
  | Move of string * string
  | Vwrite of string * string list  (** writev *)
  | Sendfile of string * string * int
  | Fstat of string
  | Mkrm of string  (** mkdir then rmdir round-trip *)

let gen_fs_ops rng =
  let paths = [| "/tmp/a"; "/tmp/b"; "/tmp/c" |] in
  List.init (Rng.int_in rng 2 10) (fun i ->
      let p = Rng.pick rng paths in
      match Rng.int rng 8 with
      | 0 -> Write (p, Printf.sprintf "w%d" i)
      | 1 -> Append (p, Printf.sprintf "a%d" i)
      | 2 -> Remove p
      | 3 -> Vwrite (p, [ Printf.sprintf "v%d" i; "+"; Printf.sprintf "%d" (Rng.int rng 100) ])
      | 4 -> Sendfile (p, Rng.pick rng paths, Rng.int_in rng 1 8)
      | 5 -> Fstat p
      | 6 -> Mkrm (Printf.sprintf "/tmp/dir%d" (Rng.int rng 3))
      | _ -> Move (p, Rng.pick rng paths))

let fs_prog ops =
  let open B in
  let step = function
    | Write (p, data) ->
      let_ "fd" (sys "open" [ str p; str "w" ])
        (seq [ sys "write" [ v "fd"; str data ]; sys "close" [ v "fd" ] ])
    | Append (p, data) ->
      let_ "fd" (sys "open" [ str p; str "a" ])
        (when_ (v "fd" >=% int 0)
           (seq [ sys "write" [ v "fd"; str data ]; sys "close" [ v "fd" ] ]))
    | Remove p -> seq [ sys "print" [ str_of_int (sys "unlink" [ str p ]) ]; unit ]
    | Move (a, b) -> seq [ sys "print" [ str_of_int (sys "rename" [ str a; str b ]) ]; unit ]
    | Vwrite (p, parts) ->
      let_ "fd" (sys "open" [ str p; str "a" ])
        (when_ (v "fd" >=% int 0)
           (seq
              [ sys "print" [ str_of_int (sys "writev" [ v "fd"; list_ (List.map str parts) ]) ];
                sys "close" [ v "fd" ] ]))
    | Sendfile (src, dst, n) ->
      let_ "in" (sys "open" [ str src; str "r" ])
        (when_ (v "in" >=% int 0)
           (let_ "out"
              (sys "open" [ str dst; str "a" ])
              (seq
                 [ sys "print" [ str_of_int (sys "sendfile" [ v "in"; v "out"; int n ]) ];
                   sys "close" [ v "out" ]; sys "close" [ v "in" ] ])))
    | Fstat p ->
      let_ "fd" (sys "open" [ str p; str "r" ])
        (if_ (v "fd" >=% int 0)
           (seq [ sys "print" [ str_of_int (fst_ (sys "fstat" [ v "fd" ])) ]; sys "close" [ v "fd" ] ])
           (sys "print" [ str "nofstat" ]))
    | Mkrm d ->
      seq
        [ sys "print" [ str_of_int (sys "mkdir" [ str d ]) ];
          sys "print" [ str_of_int (sys "rmdir" [ str d ]) ] ]
  in
  let dump p =
    let_ "fd" (sys "open" [ str p; str "r" ])
      (if_ (v "fd" >=% int 0)
         (seq [ sys "print" [ str (p ^ "="); sys "read" [ v "fd"; int 4096 ]; str ";" ] ])
         (sys "print" [ str (p ^ "=<none>;") ]))
  in
  prog ~name:"/bin/fuzzfs"
    (seq (List.map step ops @ [ dump "/tmp/a"; dump "/tmp/b"; dump "/tmp/c"; sys "exit" [ int 0 ] ]))

let fs_prop =
  QCheck.Test.make ~name:"random fs op sequences agree across stacks" ~count:40
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let ops = gen_fs_ops (Rng.create ~seed) in
      let run stack =
        let r = run_prog ~stack (fs_prog ops) in
        (W.exited r.p, r.out ())
      in
      let e1, o1 = run W.Linux in
      let e2, o2 = run W.Graphene in
      if not (e1 && e2 && o1 = o2) then
        QCheck.Test.fail_reportf "fs ops diverged (seed %d):\nlinux: %S\ngraphene: %S" seed o1 o2
      else true)

(* {1 Time-syscall parity}

   Clocks tick at different rates across stacks, so absolute readings
   cannot be compared — but the *shape* must agree: non-negative
   readings, monotone across a sleep, [time]/[gettimeofday]/
   [clock_gettime] mutually consistent, and a negative [nanosleep]
   answering -EINVAL everywhere. On Graphene the same shape must hold
   both through the vDSO page and with it switched off — a stale time
   base left behind by fork or checkpoint-restore would break
   monotonicity and fail this test. *)

let time_prog =
  let open B in
  let mark name cond = sys "print" [ if_ cond (str (name ^ "=ok;")) (str (name ^ "=BAD;")) ] in
  prog ~name:"/bin/timeshape"
    (let_ "t0"
       (sys "gettimeofday" [])
       (let_ "w0"
          (sys "time" [])
          (let_ "c0"
             (sys "clock_gettime" [ int 0 ])
             (seq
                [ mark "nonneg" (v "t0" >=% int 0);
                  mark "agree" ((v "w0" >=% v "t0") &&% (v "c0" >=% v "w0"));
                  mark "einval" (sys "nanosleep" [ int (-5) ] =% int (-22));
                  sys "nanosleep" [ int 1_000_000 ];
                  mark "mono" (sys "gettimeofday" [] >=% v "t0");
                  let_ "c" (sys "fork" [])
                    (if_ (v "c" =% int 0)
                       (seq [ mark "child-mono" (sys "clock_gettime" [ int 0 ] >=% v "c0");
                              sys "exit" [ int 0 ] ])
                       (seq [ sys "wait" []; sys "exit" [ int 0 ] ])) ]))))

let time_expected = "nonneg=ok;agree=ok;einval=ok;mono=ok;child-mono=ok;"

let time_shape_case =
  case "time syscalls: same shape on every stack, vDSO on and off" (fun () ->
      let run ?cfg stack =
        let r = run_prog ?cfg ~stack ~seed:7 time_prog in
        check_bool "exited" true (W.exited r.p);
        r.out ()
      in
      check_str "native linux" time_expected (run W.Linux);
      check_str "kvm" time_expected (run W.Kvm);
      check_str "graphene (vDSO+ring on)" time_expected (run W.Graphene);
      let off = Graphene_ipc.Config.default () in
      off.Graphene_ipc.Config.vdso <- false;
      off.Graphene_ipc.Config.ring <- false;
      check_str "graphene (vDSO+ring off)" time_expected (run ~cfg:off W.Graphene);
      check_str "graphene-rm" time_expected (run W.Graphene_rm))

(* {1 Malformed system calls}

   A call with too few arguments is the guest's mistake, not the
   simulator's: every stack answers -EINVAL and the guest carries on. *)

let missing_args_prog =
  let open B in
  let show call = sys "print" [ str_of_int call; str ";" ] in
  prog ~name:"/bin/shortargs"
    (seq
       [ show (sys "open" []);
         show (sys "write" [ int 1 ]);
         show (sys "unlink" []);
         show (sys "kill" [ int 1 ]);
         sys "exit" [ int 0 ] ])

let missing_args_case =
  case "missing syscall arguments: -EINVAL on every stack" (fun () ->
      let run stack =
        let r = run_prog ~stack missing_args_prog in
        expect_exit r;
        r.out ()
      in
      let expected = "-22;-22;-22;-22;" in
      check_str "native linux" expected (run W.Linux);
      check_str "graphene" expected (run W.Graphene);
      check_str "graphene-rm" expected (run W.Graphene_rm))

(* {1 Guest memory access out of range}

   A [poke] or [peek] that reaches an unmapped or read-only page is
   -EFAULT on every stack, decided before any byte moves: a [peek] far
   past its mapping makes no buffer for it, and a [poke] that runs off
   the end of its mapping writes nothing. A run-length [poke] whose
   string is not one byte, or a [poke] or [peek] whose count is
   negative, is -EINVAL. *)

let memcall_prog =
  let open B in
  let show call = sys "print" [ str_of_int call; str ";" ] in
  prog ~name:"/bin/badmem"
    (let_ "base"
       (sys "mmap" [ int 4096 ])
       (seq
          [ show (sys "poke" [ int 0x7000_0000_0000; str "x" ]);
            show (sys "peek" [ int 0x7000_0000_0000; int 4 ]);
            show (sys "poke" [ int K.app_base; str "x" ]);
            show (sys "peek" [ v "base"; int (16 * 1024 * 1024) ]);
            show (sys "poke" [ v "base"; pair (str "z") (int 4096) ]);
            show (sys "poke" [ v "base" +% int 4000; str (String.make 200 'y') ]);
            show (sys "poke" [ v "base" +% int 4000; pair (str "y") (int 200) ]);
            show (sys "poke" [ v "base"; pair (str "ab") (int 4) ]);
            show (sys "poke" [ v "base"; pair (str "y") (int (-1)) ]);
            show (sys "peek" [ v "base"; int (-1) ]);
            sys "print" [ sys "peek" [ v "base" +% int 3996; int 100 ] ];
            sys "exit" [ int 0 ] ]))

let memcall_expected = "-14;-14;-14;-14;0;-14;-14;-22;-22;-22;" ^ String.make 100 'z'

let memcall_cases =
  List.map
    (fun stack ->
      case
        ("poke/peek out of range: -EFAULT on " ^ W.stack_name stack)
        (fun () ->
          let r = run_prog ~stack memcall_prog in
          expect_exit r;
          check_str "console" memcall_expected (r.out ())))
    [ W.Linux; W.Kvm; W.Graphene; W.Graphene_rm ]

(* A run-length [poke] charges what poking the same bytes as a string
   charges: the copy plus one COW fault per share it breaks. A forked
   child times one poke over two shared pages and a part of a third,
   with the guest clock around the call. *)
let poke_cost_prog data =
  let open B in
  prog ~name:"/bin/pokecost"
    (let_ "base"
       (sys "mmap" [ int (4 * 4096) ])
       (seq
          [ sys "poke" [ v "base"; pair (str "p") (int (4 * 4096)) ];
            if_
              (sys "fork" [] =% int 0)
              (let_ "t0" (sys "gettimeofday" [])
                 (seq
                    [ sys "poke" [ v "base" +% int 100; data ];
                      sys "print"
                        [ str_of_int (sys "gettimeofday" [] -% v "t0");
                          str ";";
                          sys "peek" [ v "base" +% int 9090; int 20 ] ];
                      sys "exit" [ int 0 ] ]))
              (seq [ sys "wait" []; sys "exit" [ int 0 ] ]) ]))

let poke_cost_case =
  case "run-length poke costs what the string poke costs" (fun () ->
      List.iter
        (fun stack ->
          let run data =
            let r = run_prog ~stack (poke_cost_prog data) in
            expect_exit r;
            r.out ()
          in
          let str_out = run B.(repeat (str "c") (int 9000)) in
          check_str (W.stack_name stack) str_out (run B.(pair (str "c") (int 9000)));
          check_bool "bytes" true (contains str_out (";" ^ String.make 10 'c' ^ String.make 10 'p')))
        [ W.Linux; W.Graphene ])

let suite =
  List.map QCheck_alcotest.to_alcotest [ shell_prop; fs_prop ]
  @ [ time_shape_case; missing_args_case; poke_cost_case ]
  @ memcall_cases
