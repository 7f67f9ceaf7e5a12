(** Tests for the guest application suite: shell semantics, the
    compiler workload, both web servers under load, the lmbench mark
    machinery, and the SysV benchmark programs. *)

open Util
module Apps = Graphene_apps
module K = Graphene_host.Kernel
module Vfs = Graphene_host.Vfs

let run_script ?(stack = W.Graphene) script =
  run_on ~stack
    ~setup:(fun w -> Apps.Install.script (W.kernel w).K.fs ~path:"/tmp/s.sh" ~contents:script)
    ~exe:"/bin/sh" ~argv:[ "/tmp/s.sh" ] ()

let shell_tests =
  [ case "echo writes its arguments" (fun () ->
        let r = run_script "echo one two three\n" in
        expect_exit r;
        expect_console_contains "one two three" r);
    case "cp + cat round trip a file" (fun () ->
        let r = run_script "cp /tmp/f.txt /tmp/copy.txt\ncat /tmp/copy.txt\n" in
        expect_exit r;
        expect_console_contains "ffff" r;
        check_bool "copy exists" true (Vfs.exists (W.kernel r.w).K.fs "/tmp/copy.txt"));
    case "rm removes; ls lists" (fun () ->
        let r = run_script "rm /tmp/f.txt\nls /tmp\n" in
        expect_exit r;
        check_bool "f.txt gone" false (Util.contains (r.out ()) "f.txt"));
    case "background jobs and wait" (fun () ->
        let r = run_script "busywork &\nbusywork &\nwait\necho all done\n" in
        expect_exit r;
        expect_console_contains "all done" r);
    case "comments and blank lines are skipped" (fun () ->
        let r = run_script "# a comment\n\necho ok\n" in
        expect_exit r;
        expect_console_contains "ok" r);
    case "cd changes the working directory for children" (fun () ->
        let r = run_script "cd /tmp\ncat f.txt\n" in
        expect_exit r;
        expect_console_contains "ffff" r);
    case "sh -c runs one command" (fun () ->
        let r = run_on ~exe:"/bin/sh" ~argv:[ "-c"; "echo inline" ] () in
        expect_exit r;
        expect_console_contains "inline" r);
    case "unknown command exits 127, shell survives" (fun () ->
        let r = run_script "no_such_cmd\necho still here\n" in
        expect_exit r;
        expect_console_contains "still here" r);
    case "pipelines wire stdout to stdin across processes" (fun () ->
        (* /tmp/f.txt is 1024 'f's: one word, 1024 bytes *)
        let g = run_script ~stack:W.Graphene "cat /tmp/f.txt | wc\n" in
        expect_exit g;
        expect_console_contains "1 1024" g;
        let n = run_script ~stack:W.Linux "cat /tmp/f.txt | wc\n" in
        expect_exit n;
        expect_console_contains "1 1024" n);
    case "pipeline producer exit delivers EOF to the consumer" (fun () ->
        let g = run_script "echo one two three | wc\n" in
        expect_exit g;
        (* echo emits "one two three \n" = 3 words, 15 bytes *)
        expect_console_contains "3 15" g);
    case "grep filters pipeline lines on both stacks" (fun () ->
        (* /www/htaccess contains "allow all"; grep allow matches *)
        let script = "cat /www/htaccess | grep allow\n" in
        let g = run_script ~stack:W.Graphene script in
        let n = run_script ~stack:W.Linux script in
        expect_exit g;
        expect_exit n;
        expect_console_contains "allow all" g;
        check_str "stacks agree" (g.out ()) (n.out ()));
    case "head truncates pipeline output" (fun () ->
        let g = run_script "ls /bin | head 2\n" in
        expect_exit g;
        let lines =
          List.filter (fun l -> l <> "") (String.split_on_char '\n' (g.out ()))
        in
        check_int "two lines" 2 (List.length lines));
    case "> redirects stdout to a file" (fun () ->
        let r = run_script "echo captured words > /tmp/out.txt\ncat /tmp/out.txt\n" in
        expect_exit r;
        expect_console_contains "captured words" r;
        check_bool "file holds the output" true
          (Util.contains
             (Vfs.read_file (Vfs.find_file (W.kernel r.w).K.fs "/tmp/out.txt") ~off:0 ~len:4096)
             "captured words"));
    case ">> appends across commands" (fun () ->
        let r =
          run_script "echo one > /tmp/out.txt\necho two >> /tmp/out.txt\ncat /tmp/out.txt | wc\n"
        in
        expect_exit r;
        (* "one \n" + "two \n" = 2 words, 10 bytes *)
        expect_console_contains "2 10" r);
    case "< redirects a file onto stdin" (fun () ->
        let script = "wc < /tmp/f.txt\n" in
        let g = run_script ~stack:W.Graphene script in
        let n = run_script ~stack:W.Linux script in
        expect_exit g;
        expect_exit n;
        expect_console_contains "1 1024" g;
        check_str "stacks agree" (g.out ()) (n.out ()));
    case "> truncates a previous longer file" (fun () ->
        let r = run_script "echo aaaaaaaaaaaaaaaa > /tmp/out.txt\necho b > /tmp/out.txt\ncat /tmp/out.txt | wc\n" in
        expect_exit r;
        (* "b \n": 1 word, 3 bytes — no residue of the 16 a's *)
        expect_console_contains "1 3" r);
    case "redirection on a background job" (fun () ->
        let r = run_script "echo bg > /tmp/bg.txt &\nwait\ncat /tmp/bg.txt\n" in
        expect_exit r;
        expect_console_contains "bg" r);
    case "dup2 redirects descriptors" (fun () ->
        let r =
          run_prog
            Graphene_guest.Builder.(
              prog ~name:"/bin/t"
                (let_ "fd"
                   (sys "open" [ str "/tmp/red.txt"; str "w" ])
                   (seq
                      [ sys "dup2" [ v "fd"; int 1 ];
                        (* stdout now goes to the file *)
                        sys "write" [ int 1; str "redirected!" ];
                        sys "exit" [ int 0 ] ])))
        in
        expect_exit r;
        check_str "file contents" "redirected!"
          (Vfs.read_string (W.kernel r.w).K.fs "/tmp/red.txt"));
    case "the utils script runs identically on Linux" (fun () ->
        let script = Apps.Shell.utils_script ~iterations:2 in
        let g = run_script ~stack:W.Graphene script in
        let n = run_script ~stack:W.Linux script in
        expect_exit g;
        expect_exit n;
        (* date output differs (virtual clocks differ across stacks);
           compare everything else by dropping digits *)
        let strip out = String.concat "" (String.split_on_char '\n' out)
          |> String.to_seq
          |> Seq.filter (fun c -> not (c >= '0' && c <= '9'))
          |> String.of_seq
        in
        check_str "same behavior" (strip (g.out ())) (strip (n.out ()))) ]

let make_tests =
  [ case "make -j2 compiles every unit and links" (fun () ->
        let r =
          run_on
            ~setup:(fun w ->
              ignore (Apps.Compile.install_tree (W.kernel w).K.fs Apps.Compile.tiny))
            ~exe:"/bin/make"
            ~argv:[ "/src/tiny/make.manifest"; "2" ]
            ()
        in
        expect_exit r;
        let fs = (W.kernel r.w).K.fs in
        for i = 1 to Apps.Compile.tiny.Apps.Compile.files do
          check_bool
            (Printf.sprintf "f%d.o exists" i)
            true
            (Vfs.exists fs (Printf.sprintf "/src/tiny/f%d.o" i))
        done);
    case "the same build runs on the native stack" (fun () ->
        let r =
          run_on ~stack:W.Linux
            ~setup:(fun w ->
              ignore (Apps.Compile.install_tree (W.kernel w).K.fs Apps.Compile.tiny))
            ~exe:"/bin/make"
            ~argv:[ "/src/tiny/make.manifest"; "4" ]
            ()
        in
        expect_exit r);
    case "cc on a missing source fails" (fun () ->
        let r = run_on ~exe:"/bin/cc" ~argv:[ "/src/ghost.c"; "/src/ghost.o" ] () in
        check_bool "exited" true (W.exited r.p);
        check_int "code 1" 1 (W.exit_code r.p)) ]

let run_server ~stack ~exe ~argv ~ready ~requests ~concurrency ~path () =
  let w = W.create stack in
  let client = W.client_pico w in
  let result = ref None in
  let started = ref false in
  let hook s =
    if (not !started) && Util.contains s ready then begin
      started := true;
      ignore
        (Apps.Loadgen.run (W.kernel w) ~client ~port:8080 ~path ~requests ~concurrency
           (fun s -> result := Some s))
    end
  in
  ignore (W.start w ~console_hook:hook ~exe ~argv ());
  W.run w;
  match !result with Some s -> s | None -> Alcotest.fail "no load result"

let web_tests =
  [ case "lighttpd serves every request with the document body" (fun () ->
        let s =
          run_server ~stack:W.Graphene ~exe:"/bin/lighttpd" ~argv:[ "8080"; "4" ]
            ~ready:"lighttpd ready" ~requests:200 ~concurrency:8 ~path:"/index.html" ()
        in
        check_int "completed" 200 s.Apps.Loadgen.completed;
        check_int "errors" 0 s.Apps.Loadgen.errors;
        (* each response carries the 100-byte document plus headers *)
        check_bool "bytes" true (s.Apps.Loadgen.bytes >= 200 * 100));
    case "apache (preforked + SysV semaphore) serves correctly" (fun () ->
        let s =
          run_server ~stack:W.Graphene ~exe:"/bin/apache" ~argv:[ "8080"; "4"; "plain" ]
            ~ready:"apache ready" ~requests:200 ~concurrency:8 ~path:"/index.html" ()
        in
        check_int "completed" 200 s.Apps.Loadgen.completed;
        check_bool "bytes" true (s.Apps.Loadgen.bytes >= 200 * 100));
    case "missing documents get 404s, not crashes" (fun () ->
        let s =
          run_server ~stack:W.Graphene ~exe:"/bin/lighttpd" ~argv:[ "8080"; "2" ]
            ~ready:"lighttpd ready" ~requests:20 ~concurrency:2 ~path:"/nope.html" ()
        in
        check_int "completed" 20 s.Apps.Loadgen.completed);
    case "lighttpd also runs on Linux and KVM" (fun () ->
        List.iter
          (fun stack ->
            let s =
              run_server ~stack ~exe:"/bin/lighttpd" ~argv:[ "8080"; "2" ]
                ~ready:"lighttpd ready" ~requests:50 ~concurrency:4 ~path:"/index.html" ()
            in
            check_int "completed" 50 s.Apps.Loadgen.completed)
          [ W.Linux; W.Kvm ]) ]

let lmbench_tests =
  [ case "marks parse and calibrate" (fun () ->
        let r = run_on ~exe:"/bin/lat_syscall" ~argv:[ "500" ] () in
        expect_exit r;
        match Apps.Lmbench.Marks.per_op (r.out ()) ~iters:500 with
        | Some ns -> check_bool "positive" true (ns > 0.)
        | None -> Alcotest.fail "no marks");
    case "graphene getppid is cheaper than native (serviced locally)" (fun () ->
        let measure stack =
          let r = run_on ~stack ~exe:"/bin/lat_syscall" ~argv:[ "500" ] () in
          Option.get (Apps.Lmbench.Marks.per_op (r.out ()) ~iters:500)
        in
        check_bool "libOS call faster" true (measure W.Graphene < measure W.Linux));
    case "fork+exit overhead factor is in the paper's range" (fun () ->
        let measure stack =
          let r = run_on ~stack ~exe:"/bin/lat_fork_exit" ~argv:[ "30" ] () in
          Option.get (Apps.Lmbench.Marks.per_op (r.out ()) ~iters:30)
        in
        let native = measure W.Linux and graphene = measure W.Graphene in
        let factor = graphene /. native in
        (* paper: 67 us vs 463 us, ~6.9x; accept 4-10x *)
        if not (factor > 4.0 && factor < 10.0) then
          Alcotest.failf "factor %.1f outside [4,10] (native %.0f ns, graphene %.0f ns)" factor
            native graphene);
    case "af_unix ping-pong round trips" (fun () ->
        let r = run_on ~exe:"/bin/lat_af_unix" ~argv:[ "100" ] () in
        expect_exit r;
        match Apps.Lmbench.Marks.per_op (r.out ()) ~iters:100 with
        | Some ns -> check_bool "microseconds" true (ns > 1000. && ns < 100_000.)
        | None -> Alcotest.fail "no marks") ]

let sysv_prog_tests =
  [ case "sysv_inproc produces all four phases" (fun () ->
        let r = run_on ~exe:"/bin/sysv_inproc" ~argv:[ "20" ] () in
        expect_exit r;
        List.iter
          (fun phase ->
            match
              Apps.Lmbench.Marks.interval (r.out ()) ~start:(phase ^ "0") ~stop:(phase ^ "1")
                ~iters:20
            with
            | Some ns -> check_bool (phase ^ " positive") true (ns > 0.)
            | None -> Alcotest.failf "missing phase %s" phase)
          [ "create"; "lookup"; "snd"; "rcv" ]);
    case "sysv_interproc completes with remote operations" (fun () ->
        let r = run_on ~exe:"/bin/sysv_interproc" ~argv:[ "10" ] () in
        expect_exit r;
        check_bool "lookup phase" true
          (Apps.Lmbench.Marks.interval (r.out ()) ~start:"lookup0" ~stop:"lookup1" ~iters:10
          <> None));
    case "sysv_persistent reloads queues from disk" (fun () ->
        let r = run_on ~exe:"/bin/sysv_persistent" ~argv:[ "5" ] () in
        expect_exit r;
        check_bool "pget phase" true
          (Apps.Lmbench.Marks.interval (r.out ()) ~start:"pget0" ~stop:"pget1" ~iters:5 <> None)) ]

let marks_tests =
  [ case "marks parsing ignores malformed lines" (fun () ->
        let console = "noise\nMARK cal0 100\nMARK cal1 xyz\nMARK op0 300\n" in
        check_bool "partial" true (Apps.Lmbench.Marks.per_op console ~iters:10 = None));
    case "per_op subtracts the calibration loop" (fun () ->
        let console = "MARK cal0 0\nMARK cal1 100\nMARK op0 200\nMARK op1 1300\n" in
        match Apps.Lmbench.Marks.per_op console ~iters:10 with
        | Some ns -> Alcotest.(check (float 1e-9)) "100 ns/op" 100.0 ns
        | None -> Alcotest.fail "no marks");
    case "interval divides by iterations" (fun () ->
        let console = "MARK a0 1000\nMARK a1 3000\n" in
        match Apps.Lmbench.Marks.interval console ~start:"a0" ~stop:"a1" ~iters:4 with
        | Some ns -> Alcotest.(check (float 1e-9)) "500" 500.0 ns
        | None -> Alcotest.fail "no interval");
    case "memmodel dirty rounds to whole chunks" (fun () ->
        (* a sub-chunk request compiles to a no-op, not a fault *)
        let r =
          run_prog
            Graphene_guest.Builder.(
              prog ~name:"/bin/t"
                (seq [ Apps.Memmodel.dirty 1000; sys "exit" [ int 0 ] ]))
        in
        expect_exit r);
    case "dirtying 1 MiB allocates at most 1,024 host words per 64 KiB chunk" (fun () ->
        (* the host words of a whole Graphene+RM run, minor plus major,
           with and without the dirtying: a chunk costs the guest loop,
           one syscall and sixteen frame records, not its bytes. The
           minor collections make [Gc.counters] count the young heap. *)
        let run bytes =
          Gc.minor ();
          let minor, promoted, major = Gc.counters () in
          let r =
            run_prog ~stack:W.Graphene_rm
              Graphene_guest.Builder.(
                prog ~name:"/bin/t" (seq [ Apps.Memmodel.dirty bytes; sys "exit" [ int 0 ] ]))
          in
          Gc.minor ();
          let minor', promoted', major' = Gc.counters () in
          expect_exit r;
          (minor' -. minor +. (major' -. major) -. (promoted' -. promoted), (W.pico r.p).K.peak_rss)
        in
        let mib = 1 lsl 20 in
        let base_words, base_rss = run 0 in
        let words, rss = run mib in
        check_bool "1 MiB more resident" true (rss - base_rss >= mib);
        let per_chunk = (words -. base_words) /. float_of_int (mib / Apps.Memmodel.chunk) in
        if per_chunk > 1024.0 then Alcotest.failf "%.0f words per chunk" per_chunk);
    case "install is idempotent" (fun () ->
        let w = W.create W.Graphene in
        Apps.Install.all (W.kernel w).K.fs;
        let p = W.start w ~exe:"/bin/hello" ~argv:[] () in
        W.run w;
        check_bool "ok" true (W.exited p && W.exit_code p = 0)) ]

let suite = shell_tests @ make_tests @ web_tests @ lmbench_tests @ sysv_prog_tests @ marks_tests
