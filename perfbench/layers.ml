(* Per-layer metrics of one traced run, plus host-time probes of each
   layer's public functions.

   Counts come from the kernel and the world's tracer. Self time is a
   layer's span time minus the part its child spans cover, found by
   nesting the recorded spans per (pid, tid). Critical-path shares come
   from Critpath over the measured interval. The [*_ns] probes time
   direct calls into one layer each, so a change to that layer moves
   its probe whatever the workload. *)

module W = Graphene.World
module K = Graphene_host.Kernel
module Memory = Graphene_host.Memory
module Vfs = Graphene_host.Vfs
module Engine = Graphene_sim.Engine
module Time = Graphene_sim.Time
module Histogram = Graphene_sim.Stats.Histogram
module Obs = Graphene_obs.Obs
module Critpath = Graphene_obs.Critpath
module Interp = Graphene_guest.Interp
module Prog = Graphene_bpf.Prog
module Seccomp = Graphene_bpf.Seccomp
module Ckpt = Graphene_liblinux.Ckpt
module Wire = Graphene_ipc.Wire
module Coord = Graphene_ipc.Coord

let layers = [ "sim"; "kernel"; "pal"; "refmon"; "liblinux"; "ipc" ]

(* {1 Self time} *)

let self_ns (spans : Obs.span_record list) =
  let totals = Hashtbl.create 8 in
  let add layer ns =
    Hashtbl.replace totals layer (ns + Option.value ~default:0 (Hashtbl.find_opt totals layer))
  in
  let by_thread = Hashtbl.create 64 in
  List.iter
    (fun (s : Obs.span_record) ->
      let key = (s.r_pid, s.r_tid) in
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_thread key) in
      Hashtbl.replace by_thread key (s :: prev))
    spans;
  Hashtbl.iter
    (fun _ l ->
      (* parents first: earlier start, then the longer span *)
      let l =
        List.stable_sort
          (fun (a : Obs.span_record) (b : Obs.span_record) ->
            if a.r_start <> b.r_start then compare a.r_start b.r_start else compare b.r_dur a.r_dur)
          l
      in
      let stack = ref [] in
      let close (s, covered) = add s.Obs.r_layer (s.Obs.r_dur - !covered) in
      List.iter
        (fun (s : Obs.span_record) ->
          let rec pop () =
            match !stack with
            | ((t : Obs.span_record), _) as top :: rest when t.r_start + t.r_dur <= s.r_start ->
              close top;
              stack := rest;
              pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with
          | ((t : Obs.span_record), covered) :: _ ->
            covered := !covered + (min (s.r_start + s.r_dur) (t.r_start + t.r_dur) - s.r_start)
          | [] -> ());
          stack := (s, ref 0) :: !stack)
        l;
      List.iter close !stack)
    by_thread;
  fun layer -> Option.value ~default:0 (Hashtbl.find_opt totals layer)

(* {1 Histograms and ratios} *)

(* The median of several log-bucketed histograms taken together,
   interpolated inside the bucket that holds the middle rank. *)
let merged_p50 hs =
  let buckets = List.concat_map Histogram.buckets hs |> List.sort compare in
  let total = List.fold_left (fun a (_, _, c) -> a + c) 0 buckets in
  if total = 0 then 0.
  else
    let half = float_of_int total /. 2. in
    let rec go seen = function
      | (lo, hi, c) :: rest ->
        let seen' = seen +. float_of_int c in
        if seen' >= half then lo +. ((hi -. lo) *. (half -. seen) /. float_of_int c)
        else go seen' rest
      | [] -> 0.
    in
    go 0. buckets

let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)

let rpc_labels =
  [ "pid_alloc"; "pid_query"; "res_query"; "signal"; "proc_read"; "msgq_get"; "msgq_send";
    "msgq_recv"; "msgq_rmid"; "sem_get"; "sem_op"; "wait_any_probe" ]

(* {1 Host-time probes} *)

(* Median host ns per item of [f], which handles [items] items per
   call. A batch repeats [f] until it lasts at least 2 ms, well above
   the clock's resolution; batches run for about [budget] seconds. *)
let probe ?(budget = 0.1) ?(items = 1) f =
  let now = Unix.gettimeofday in
  let timed n =
    let t0 = now () in
    for _ = 1 to n do
      f ()
    done;
    now () -. t0
  in
  let rec calibrate n = if timed n < 0.002 then calibrate (2 * n) else n in
  let n = calibrate 1 in
  let start = now () in
  let samples = ref [] in
  while now () -. start < budget || List.length !samples < 5 do
    samples := (timed n /. float_of_int (n * items) *. 1e9) :: !samples
  done;
  let a = Array.of_list !samples in
  Array.sort compare a;
  a.(Array.length a / 2)

let probes ~world ~seed =
  let open Graphene_guest.Builder in
  let fire =
    probe ~items:1000 (fun () ->
        let e = Engine.create () in
        for i = 1 to 1000 do
          ignore (Engine.schedule_after e (Time.ns i) ignore)
        done;
        Engine.run_until_idle e)
  in
  let loop =
    Interp.start
      (prog ~name:"/probe/loop"
         (let_ "i" (int 0) (while_ (v "i" <% int 1_000_000_000) (set "i" (v "i" +% int 1)))))
      ~argv:[]
  in
  let step = probe ~items:10_000 (fun () -> ignore (Interp.run loop ~fuel:10_000)) in
  let rep64k =
    prog ~name:"/probe/repeat" (let_ "s" (repeat (str "w") (int 65536)) (sys "exit" [ int 0 ]))
  in
  let repeat64k =
    probe (fun () -> ignore (Interp.run (Interp.start rep64k ~argv:[]) ~fuel:100))
  in
  let alloc = Memory.make_allocator () in
  let m = Memory.create alloc in
  let chunk = String.make 65536 'w' in
  let write64k =
    probe (fun () ->
        ignore (Memory.map m ~base:0x10000000 ~npages:16 ~perm:Memory.rw ~kind:Memory.Mmap);
        ignore (Memory.write_bytes m 0x10000000 chunk);
        Memory.unmap m ~base:0x10000000)
  in
  let src = Memory.create alloc in
  let pages = 512 in
  ignore (Memory.map src ~base:0x20000000 ~npages:pages ~perm:Memory.rw ~kind:Memory.Heap);
  for p = 0 to pages - 1 do
    ignore (Memory.write_bytes src (0x20000000 + (p * Memory.page_size)) "dirty")
  done;
  let share =
    probe ~items:pages (fun () ->
        let dst = Memory.create alloc in
        ignore (Memory.share_all ~src ~dst);
        Memory.destroy dst)
  in
  let fs = (W.kernel world).K.fs in
  let headers = Array.init 64 (Printf.sprintf "/usr/include/h%d.h") in
  let stat = probe ~items:64 (fun () -> Array.iter (fun p -> ignore (Vfs.stat fs p)) headers) in
  let filter = Seccomp.graphene_filter ~pal_lo:K.pal_base ~pal_hi:K.pal_limit in
  let data =
    { Prog.nr = Graphene_bpf.Sysno.number "read";
      arch = Prog.audit_arch_x86_64;
      pc = K.pal_base + 64;
      args = Array.make 6 0 }
  in
  let bpf = probe (fun () -> ignore (Prog.eval filter data)) in
  (* the shell workload's machine: /bin/sh holding its script *)
  let script = (Gen.shell seed).Gen.script in
  let machine =
    match
      Interp.run
        (Interp.start
           (prog ~name:"/bin/sh" (let_ "lines" (split (str script) (str "\n")) (sys "fork" [])))
           ~argv:[ "/tmp/bench.sh" ])
        ~fuel:1_000_000
    with
    | Interp.Syscall (_, _, st) -> st
    | _ -> failwith "probe machine did not reach its fork"
  in
  let ckpt () =
    ignore
      (Ckpt.to_bytes
         { Ckpt.c_machine = Interp.to_bytes machine;
           c_exe = "/bin/sh";
           c_pid = 2;
           c_ppid = 1;
           c_pgid = 1;
           c_parent_addr = "pico:1";
           c_cwd = "/";
           c_fds = [ Ckpt.Sconsole 0; Ckpt.Sconsole 1; Ckpt.Sconsole 2 ];
           c_sigactions = [];
           c_sig_blocked = [];
           c_brk = 0;
           c_inherited =
             { Graphene_ipc.Instance.i_leader_addr = "pico:1";
               i_pid_range = Some (2, 64);
               i_owner_cache = [];
               i_pid_cache = [] };
           c_regions = [];
           c_heap_pages = [] })
  in
  let ckpt_ns = probe ckpt in
  let get =
    Wire.Req
      { seq = 1;
        origin = "pico:2";
        req = Wire.Msgq_get { key = 500; create = false; requester = "pico:2" } }
  and send =
    Wire.Oneway
      { seq = 2;
        origin = "pico:2";
        note = Wire.Msgq_send_async { id = 1; data = String.make 64 'm' } }
  in
  let encode =
    probe ~items:2 (fun () ->
        ignore (Wire.encode get);
        ignore (Wire.encode send))
  in
  let eget = Wire.encode get and esend = Wire.encode send in
  let decode =
    probe ~items:2 (fun () ->
        ignore (Wire.decode eget);
        ignore (Wire.decode esend))
  in
  let coord = Coord.create ~capacity:1024 ~ttl:(Time.ms 10.) in
  let coord_ns =
    probe (fun () ->
        ignore (Coord.acquire coord ~now:Time.zero ~ns:Coord.Sysv ~key:7 ~owner:"pico:1" ());
        ignore (Coord.check coord ~now:Time.zero ~ns:Coord.Sysv ~key:7);
        ignore (Coord.release coord ~ns:Coord.Sysv ~key:7))
  in
  [ ("sim.fire_ns", fire, "ns");
    ("guest.step_ns", step, "ns");
    ("guest.repeat64k_ns", repeat64k, "ns");
    ("host.mem.write64k_ns", write64k, "ns");
    ("host.mem.share_ns_per_page", share, "ns");
    ("host.vfs.stat_ns", stat, "ns");
    ("bpf.eval_ns", bpf, "ns");
    ("liblinux.ckpt_encode_ns", ckpt_ns, "ns");
    ("ipc.wire.encode_ns", encode, "ns");
    ("ipc.wire.decode_ns", decode, "ns");
    ("ipc.coord.op_ns", coord_ns, "ns") ]

(* {1 All per-layer metrics} *)

let metrics ~world ~virt_start ~events ~pal_calls ~syscalls ~untraced_wall ~traced_wall ~seed =
  let tr = W.tracer world in
  let c = Obs.counter_value tr in
  let spans = Obs.span_records tr in
  let self = self_ns spans in
  let self_ms layer = float_of_int (self layer) /. 1e6 in
  let until = W.now world in
  let measured = max 1 (until - virt_start) in
  (* attribution inside [virt_start, until): the breakdown to [until]
     less the breakdown to [virt_start] *)
  let cp_to t =
    let entries = if t = 0 then [] else Critpath.analyze tr ~until:t in
    fun layer ->
      List.fold_left
        (fun a e -> if e.Critpath.cp_layer = layer then a + e.Critpath.cp_ns else a)
        0 entries
  in
  let cp_until = cp_to until and cp_start = cp_to virt_start in
  let cp_ns layer = max 0 (cp_until layer - cp_start layer) in
  let hist name = Obs.histogram tr name in
  let fork_p50 =
    match hist "liblinux.sys.fork" with
    | Some h when Histogram.count h > 0 -> Histogram.quantile h 0.5 /. 1e3
    | _ -> 0.
  in
  let rtt = List.filter_map (fun l -> hist ("ipc.rtt." ^ l)) rpc_labels in
  let lease what = c ("ipc.lease.owner." ^ what) + c ("ipc.lease.pid." ^ what) in
  let sem_fast = c "ipc.sem.fast_acquire" + c "ipc.sem.fast_release" + c "ipc.sem.fast_eagain" in
  let sem_slow =
    List.fold_left
      (fun a g -> a + c ("ipc.sem.fallback." ^ g))
      0
      [ "no_page"; "cross_sandbox"; "stale_lease"; "contended" ]
  in
  let count name v = (name, float_of_int v, "count") in
  [ count "sim.events" events;
    ("sim.ns_per_event", untraced_wall *. 1e9 /. float_of_int (max 1 events), "ns");
    count "host.syscalls" syscalls;
    ("host.kernel.self_ms", self_ms "kernel", "ms");
    count "pal.calls" pal_calls;
    ("pal.self_ms", self_ms "pal", "ms");
    count "refmon.checks" (c "refmon.allow" + c "refmon.deny");
    ("refmon.cache_hit_ratio", ratio (c "refmon.cache.hit") (c "refmon.cache.miss"), "ratio");
    ("refmon.self_ms", self_ms "refmon", "ms");
    count "liblinux.syscalls" (c "liblinux.syscalls");
    ("liblinux.self_ms", self_ms "liblinux", "ms");
    ("liblinux.fork_p50_us", fork_p50, "us");
    count "ipc.rpcs" (c "ipc.rpcs");
    count "ipc.oneways" (c "ipc.oneway");
    ("ipc.self_ms", self_ms "ipc", "ms");
    ("ipc.rtt_p50_us", merged_p50 rtt /. 1e3, "us");
    ("ipc.lease.hit_ratio", ratio (lease "hit") (lease "miss"), "ratio");
    ("ipc.sem.fast_ratio", ratio sem_fast sem_slow, "ratio") ]
  @ List.map
      (fun l ->
        ("critpath." ^ l ^ ".share", float_of_int (cp_ns l) /. float_of_int measured, "ratio"))
      layers
  @ [ count "obs.spans" (List.length spans);
      ("obs.trace_overhead_x", traced_wall /. untraced_wall, "x") ]
  @ probes ~world ~seed
