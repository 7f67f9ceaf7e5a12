(* The four workloads: set-up, the measured run, and the output checks.

   [setup] builds a fresh world at noise 0, installs the generated
   inputs and boots any server to ready. [run] drives the fixed load to
   completion and checks what the guest produced. The caller times the
   two separately and may enable the world's tracer in between. *)

module W = Graphene.World
module K = Graphene_host.Kernel
module Vfs = Graphene_host.Vfs
module Stream = Graphene_host.Stream
module Engine = Graphene_sim.Engine
module Time = Graphene_sim.Time
module Obs = Graphene_obs.Obs
module Loader = Graphene_liblinux.Loader
module Apps = Graphene_apps

type result = {
  virt_ns : int;  (** modeled time of the fixed load *)
  peak_rss : int;  (** modeled peak system footprint, bytes *)
  lat_ns : float list;  (** modeled latency of each unit of work *)
  attempted : int;
  failed : int;
  errors : string list;  (** why outputs were wrong; empty when correct *)
}

type prepared = { world : W.t; run : unit -> result }

let names = [ "build"; "shell"; "web"; "ipc" ]

(* {1 Measurement helpers} *)

(* Peak system footprint sampled every millisecond of virtual time, as
   bench/harness.ml's peak_memory_during does for Figure 4, until the
   returned [stop] is called from inside the simulation. *)
let memory_sampler w =
  let peak = ref 0 and finished = ref false in
  let k = W.kernel w in
  let rec sample () =
    peak := max !peak (W.memory_footprint w);
    if not !finished then K.after k (Time.ms 1.0) sample
  in
  sample ();
  let stop () = finished := true in
  let peak () = max !peak (W.memory_footprint w) in
  (stop, peak)

(* Sample until [p] exits. *)
let sample_until_exit w p =
  let stop, peak = memory_sampler w in
  K.on_pico_exit (W.kernel w) (W.pico p) (fun _ -> stop ());
  peak

(* Spawn-to-exit time of every picoprocess created after this call:
   the per-job latency of the batch workloads. Watches the kernel's pid
   counter from the engine's dispatch hook, so it works from outside
   the program. Not installed on a traced run, whose hook feeds the
   tracer. *)
let track_children w =
  let k = W.kernel w in
  let lat = ref [] in
  if not (Obs.enabled (W.tracer w)) then begin
    let seen = ref k.K.next_pid in
    Engine.set_fire_hook k.K.engine
      (Some
         (fun _ _ ->
           if k.K.next_pid <> !seen then begin
             let lo = !seen in
             seen := k.K.next_pid;
             let rec attach = function
               | (p : K.pico) :: rest when p.K.pid > lo ->
                 K.on_pico_exit k p (fun _ ->
                     lat := float_of_int (Time.diff (K.now k) p.K.spawned_at) :: !lat);
                 attach rest
               | _ -> ()
             in
             attach k.K.picos
           end))
  end;
  fun () -> !lat

let count_lines s =
  let n = ref 0 in
  String.iter (fun c -> if c = '\n' then incr n) s;
  !n

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let ok_result ~virt_ns ~peak_rss ~lat_ns ~attempted errors =
  { virt_ns; peak_rss; lat_ns; attempted; failed = min attempted (List.length errors); errors }

(* {1 build: make -j4 over the libLinux tree on Graphene+RM} *)

let build (g : Gen.build) =
  let w = W.create ~noise:0. W.Graphene_rm in
  let fs = (W.kernel w).K.fs in
  let dir = "/src/pb" in
  Vfs.mkdir_p fs dir;
  let manifest = Buffer.create 4096 in
  let objs =
    List.init g.Gen.files (fun i ->
        let src = Printf.sprintf "%s/f%d.c" dir i and obj = Printf.sprintf "%s/f%d.o" dir i in
        Vfs.write_string fs src
          (Printf.sprintf "WORK %d PROBES %d\n%s" g.Gen.work.(i) g.Gen.probes.(i)
             (String.make 200 '/'));
        Buffer.add_string manifest (Printf.sprintf "%s %s\n" src obj);
        (src, obj))
  in
  let mpath = dir ^ "/make.manifest" in
  Vfs.write_string fs mpath (Buffer.contents manifest);
  let run () =
    let t0 = W.now w in
    let p = W.start w ~exe:"/bin/make" ~argv:[ mpath; string_of_int g.Gen.jobs ] () in
    let peak = sample_until_exit w p and lat = track_children w in
    W.run w;
    let peak_rss = peak () in
    let errors =
      (if W.exit_code p <> 0 then [ Printf.sprintf "make exited %d" (W.exit_code p) ] else [])
      @ List.filter_map
          (fun (src, obj) ->
            if not (Vfs.exists fs obj) then Some (obj ^ " missing")
            else if Vfs.read_string fs obj <> "OBJ " ^ src then Some (obj ^ " has wrong contents")
            else None)
          objs
    in
    ok_result ~virt_ns:(Time.diff (W.now w) t0) ~peak_rss ~lat_ns:(lat ()) ~attempted:g.Gen.files
      errors
  in
  { world = w; run }

(* {1 shell: the Unix-utils script on Graphene+RM} *)

let shell (g : Gen.shell) =
  let w = W.create ~noise:0. W.Graphene_rm in
  Apps.Install.script (W.kernel w).K.fs ~path:"/tmp/bench.sh" ~contents:g.Gen.script;
  let run () =
    let console = Buffer.create 65536 in
    let t0 = W.now w in
    let p =
      W.start w ~console_hook:(Buffer.add_string console) ~exe:"/bin/sh"
        ~argv:[ "/tmp/bench.sh" ] ()
    in
    let peak = sample_until_exit w p and lat = track_children w in
    W.run w;
    let peak_rss = peak () in
    let lines = count_lines (Buffer.contents console) in
    let errors =
      (if W.exit_code p <> 0 then [ Printf.sprintf "sh exited %d" (W.exit_code p) ] else [])
      @
      if lines <> g.Gen.expect_lines then
        [ Printf.sprintf "console has %d lines, expected %d" lines g.Gen.expect_lines ]
      else []
    in
    ok_result ~virt_ns:(Time.diff (W.now w) t0) ~peak_rss ~lat_ns:(lat ())
      ~attempted:(6 * g.Gen.iterations) errors
  in
  { world = w; run }

(* {1 web: apache, 4 prefork workers, 25 closed-loop clients}

   The benchmark's own HTTP client: each of [clients] connections sends
   its next request only when the previous response has fully arrived.
   A refused connect, a failed send or a response that is not exactly
   the status line, headers and the document's body counts as failed. *)

let port = 8080

let http_load ?(on_done = ignore) w ~client ~(paths : string array) ~clients ~expect =
  let k = W.kernel w in
  let n = Array.length paths in
  let next = ref 0 and inflight = ref 0 in
  let lat = ref [] and errors = ref [] in
  let first = ref None and last = ref (K.now k) in
  let rec start_one () =
    if !next < n then begin
      let path = paths.(!next) in
      incr next;
      incr inflight;
      let t0 = K.now k in
      if !first = None then first := Some t0;
      K.net_connect k client ~port
        ~ok:(fun ep ->
          match K.stream_send k ep (Apps.Loadgen.request_for path) with
          | () -> recv ep path t0 (Buffer.create 1024)
          | exception K.Denied e ->
            Stream.close ep;
            finish (Some (path ^ ": send " ^ e)))
        ~err:(fun e -> finish (Some (path ^ ": connect " ^ e)))
    end
  and recv ep path t0 buf =
    K.stream_recv k ep ~max:65536 (fun data ->
        if data = "" then begin
          Stream.close ep;
          if Buffer.contents buf = expect path then begin
            lat := float_of_int (Time.diff (K.now k) t0) :: !lat;
            finish None
          end
          else finish (Some (path ^ ": truncated or wrong response"))
        end
        else begin
          Buffer.add_string buf data;
          recv ep path t0 buf
        end)
  and finish err =
    (match err with Some e -> errors := e :: !errors | None -> ());
    decr inflight;
    last := K.now k;
    start_one ();
    if !inflight = 0 then on_done ()
  in
  for _ = 1 to clients do
    start_one ()
  done;
  fun () ->
    let started = Option.value ~default:!last !first in
    (Time.diff !last started, !lat, List.rev !errors, !next - !inflight)

let web (g : Gen.web) =
  let w = W.create ~noise:0. W.Graphene_rm in
  let fs = (W.kernel w).K.fs in
  Vfs.mkdir_p fs (Apps.Web.docroot ^ "/pb");
  List.iter (fun (path, body) -> Vfs.write_string fs (Apps.Web.docroot ^ path) body) g.Gen.docs;
  let bodies = Hashtbl.create 32 in
  List.iter
    (fun (path, body) -> Hashtbl.replace bodies path (Apps.Web.response_header ^ body))
    g.Gen.docs;
  let expect path = Hashtbl.find bodies path in
  let console = Buffer.create 256 in
  ignore
    (W.start w ~console_hook:(Buffer.add_string console) ~exe:"/bin/apache"
       ~argv:[ string_of_int port; string_of_int g.Gen.workers; "plain" ]
       ());
  W.run w;
  let client = W.client_pico w in
  (* warm the server's caches with one pass over the documents *)
  let warm_paths = Array.of_list (List.map fst g.Gen.docs) in
  let warm = http_load w ~client ~paths:warm_paths ~clients:g.Gen.clients ~expect in
  W.run w;
  let _, _, warm_errors, _ = warm () in
  let boot_errors =
    (if contains (Buffer.contents console) "apache ready" then [] else [ "apache never ready" ])
    @ warm_errors
  in
  let run () =
    let stop, peak = memory_sampler w in
    let load =
      http_load ~on_done:stop w ~client ~paths:g.Gen.requests ~clients:g.Gen.clients ~expect
    in
    W.run w;
    let peak_rss = peak () in
    let virt_ns, lat_ns, errors, done_ = load () in
    let n = Array.length g.Gen.requests in
    let errors =
      boot_errors @ errors
      @ if done_ <> n then [ Printf.sprintf "%d of %d requests completed" done_ n ] else []
    in
    ok_result ~virt_ns ~peak_rss ~lat_ns ~attempted:n errors
  in
  { world = w; run }

(* {1 ipc: rounds of SysV message-queue traffic between a parent and a
   forked child on Graphene}

   /bin/sysv_interproc's interprocess column with the payloads read
   from a generated file: per round, the child looks the queue up
   [depth] times through the leader, both sides send [depth] messages,
   and the child drains all 2*[depth] (its first remote receive
   migrates the queue to it), then reports what it received. *)

let bench_sysv =
  let open Graphene_guest.Builder in
  let mark = Apps.Lmbench.mark in
  let load_sizes arg =
    let_ "fd"
      (sys "open" [ nth (v "argv") (int arg); str "r" ])
      (let_ "text"
         (call "read_all" [ v "fd" ])
         (seq [ sys "close" [ v "fd" ]; call "nonempty" [ split (v "text") (str " ") ] ]))
  in
  let send_all =
    foreach "sz" (v "sizes") (sys "msgsnd" [ v "id"; repeat (str "m") (int_of_str (v "sz")) ])
  in
  let child =
    seq
      [ mark "lookup0";
        let_ "i" (int 0)
          (while_ (v "i" <% v "depth")
             (seq [ sys "msgget" [ v "key"; int 0 ]; set "i" (v "i" +% int 1) ]));
        mark "lookup1";
        let_ "sizes" (load_sizes 3) (seq [ mark "snd0"; send_all; mark "snd1" ]);
        mark "rcv0";
        let_ "n" (int 0)
          (let_ "bytes" (int 0)
             (seq
                [ while_
                    (v "n" <% (v "depth" *% int 2))
                    (seq
                       [ set "bytes" (v "bytes" +% len (sys "msgrcv" [ v "id" ]));
                         set "n" (v "n" +% int 1) ]);
                  mark "rcv1";
                  sys "print"
                    [ str "RCVD " ^% str_of_int (v "n") ^% str " " ^% str_of_int (v "bytes")
                      ^% str "\n" ] ]));
        sys "exit" [ int 0 ] ]
  in
  let parent =
    let_ "sizes" (load_sizes 2)
      (seq [ mark "psnd0"; send_all; mark "psnd1"; sys "wait" []; sys "exit" [ int 0 ] ])
  in
  prog ~name:"/bin/bench_sysv"
    ~funcs:[ Apps.Compile.read_all_func; Apps.Compile.nonempty_func ]
    (let_ "key"
       (int_of_str (nth (v "argv") (int 0)))
       (let_ "depth"
          (int_of_str (nth (v "argv") (int 1)))
          (let_ "id"
             (sys "msgget" [ v "key"; int 1 ])
             (let_ "pid" (sys "fork" []) (if_ (v "pid" =% int 0) child parent)))))

let ipc_marks = [ "lookup0"; "lookup1"; "snd0"; "snd1"; "rcv0"; "rcv1"; "psnd0"; "psnd1" ]

let ipc (g : Gen.ipc) =
  let w = W.create ~noise:0. W.Graphene in
  let fs = (W.kernel w).K.fs in
  Loader.install fs ~path:"/bin/bench_sysv" bench_sysv;
  let size_file r side sizes =
    let path = Printf.sprintf "/tmp/pb_ipc_%d.%s" r side in
    Vfs.write_string fs path (String.concat " " (Array.to_list (Array.map string_of_int sizes)));
    path
  in
  let files =
    Array.init g.Gen.rounds (fun r ->
        (size_file r "p" g.Gen.parent_sizes.(r), size_file r "c" g.Gen.child_sizes.(r)))
  in
  let run () =
    let t0 = W.now w in
    let peak = ref 0 and lats = ref [] and errors = ref [] in
    for r = 0 to g.Gen.rounds - 1 do
      let console = Buffer.create 1024 in
      let ppath, cpath = files.(r) in
      let p =
        W.start w ~console_hook:(Buffer.add_string console) ~exe:"/bin/bench_sysv"
          ~argv:[ string_of_int (500 + r); string_of_int g.Gen.depth; ppath; cpath ]
          ()
      in
      let rss = sample_until_exit w p and lat = track_children w in
      W.run w;
      peak := max !peak (rss ());
      lats := lat () @ !lats;
      let out = Buffer.contents console in
      let sum a = Array.fold_left ( + ) 0 a in
      let want =
        Printf.sprintf "RCVD %d %d\n" (2 * g.Gen.depth)
          (sum g.Gen.parent_sizes.(r) + sum g.Gen.child_sizes.(r))
      in
      let err e = errors := Printf.sprintf "round %d: %s" r e :: !errors in
      if W.exit_code p <> 0 then err (Printf.sprintf "exited %d" (W.exit_code p));
      List.iter
        (fun m -> if not (contains out ("MARK " ^ m ^ " ")) then err ("no mark " ^ m))
        ipc_marks;
      if not (contains out want) then err "queue not drained"
    done;
    ok_result ~virt_ns:(Time.diff (W.now w) t0) ~peak_rss:!peak ~lat_ns:!lats
      ~attempted:(2 * g.Gen.depth * g.Gen.rounds) (List.rev !errors)
  in
  { world = w; run }

(* Generate the inputs once; the returned function is the set-up. *)
let setup name seed =
  match name with
  | "build" -> let g = Gen.build seed in fun () -> build g
  | "shell" -> let g = Gen.shell seed in fun () -> shell g
  | "web" -> let g = Gen.web seed in fun () -> web g
  | "ipc" -> let g = Gen.ipc seed in fun () -> ipc g
  | _ -> invalid_arg ("unknown workload " ^ name)
