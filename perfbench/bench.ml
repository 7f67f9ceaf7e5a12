(* The repository benchmark's main program.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   --trace 0 times whole runs with tracing off and reports the
   end-to-end metrics; --trace 1 runs the workload again with the
   world's tracer on and reports the per-layer metrics (Layers). Each
   run is a fresh world set up from the seed's inputs; runs repeat
   until [seconds] have passed and medians are reported. Every run's
   outputs are checked, and the exact counters must agree across the
   runs of one invocation. The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

module W = Graphene.World
module K = Graphene_host.Kernel
module Engine = Graphene_sim.Engine
module Obs = Graphene_obs.Obs

let now = Unix.gettimeofday

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Linear interpolation between closest ranks. *)
let percentile l q =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let r = q *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

(* {1 One run} *)

type run = {
  setups : float list;  (** this run's set-up, then any repeated alone after it *)
  wall_s : float;
  alloc_w : float;  (** minor + major - promoted *)
  major_w : float;  (** direct major + promoted *)
  heap_mb : float;  (** top heap of the process after the run *)
  res : Workloads.result;
  events : int;
  pal_calls : int;
  syscalls : int;
  virt_start : int;  (** virtual time the measured run began *)
  traced : bool;
}

(* The world of the latest traced run, which the per-layer metrics read.
   Runs keep no world otherwise: retained worlds would grow the heap and
   slow every later run. *)
let last_traced = ref None

let syscall_total k = List.fold_left (fun acc (_, n) -> acc + n) 0 (K.syscall_counts k)
let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6

(* Set-up is cheap next to a run, so an untraced run repeats it alone
   afterwards for a twentieth of a second: the set-up median then
   samples the whole invocation. *)
let extra_setups prepare =
  let rec go spent n acc =
    if n >= 200 || spent >= 0.05 then acc
    else
      let t0 = now () in
      ignore (Sys.opaque_identity (prepare ()));
      let dt = now () -. t0 in
      go (spent +. dt) (n + 1) (dt :: acc)
  in
  go 0. 0 []

let one_run ~traced prepare =
  let t0 = now () in
  let p : Workloads.prepared = prepare () in
  let setup_s = now () -. t0 in
  let k = W.kernel p.world in
  if traced then Obs.enable (W.tracer p.world);
  (* every measured run starts from the same collector state *)
  Gc.compact ();
  let ev0 = Engine.events_fired k.K.engine and pal0 = k.K.pal_calls and sys0 = syscall_total k in
  let virt_start = W.now p.world in
  let mi0, pr0, ma0 = Gc.counters () in
  let t1 = now () in
  let res = p.run () in
  let wall_s = now () -. t1 in
  let mi1, pr1, ma1 = Gc.counters () in
  let heap_mb = mb_of_words (float_of_int (Gc.quick_stat ()).Gc.top_heap_words) in
  if traced then last_traced := Some p.world;
  { setups = setup_s :: (if traced then [] else extra_setups prepare);
    wall_s;
    alloc_w = mi1 -. mi0 +. (ma1 -. ma0) -. (pr1 -. pr0);
    major_w = ma1 -. ma0;
    heap_mb;
    res;
    events = Engine.events_fired k.K.engine - ev0;
    pal_calls = k.K.pal_calls - pal0;
    syscalls = syscall_total k - sys0;
    virt_start;
    traced }

(* What must repeat exactly between runs of the same inputs: modeled
   results and simulator counters, and the latency samples when both
   runs collected them (a traced run does not). Allocation counters are
   left out: OCaml 5's GC counters depend on the heap a run starts from,
   so they repeat exactly only between first runs of fresh processes. *)
let same a b =
  let signature ~lat r =
    Printf.sprintf "virt=%d rss=%d events=%d pal=%d sys=%d lat=%s" r.res.virt_ns r.res.peak_rss
      r.events r.pal_calls r.syscalls
      (if lat then String.concat "," (List.map string_of_float (List.sort compare r.res.lat_ns))
       else "")
  in
  let lat = not (a.traced || b.traced) in
  signature ~lat a = signature ~lat b

(* {1 Output} *)

type metric = { name : string; value : float; unit_ : string }

let json_metric m = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_

let fail_run ~attempted ~failed errors =
  List.iter (fun e -> Printf.eprintf "check failed: %s\n" e) errors;
  Printf.printf "{\"correct\": false, \"attempted\": %d, \"failed\": %d, \"metrics\": {}}\n%!"
    (max 1 attempted) (max 1 failed);
  exit 1

let report ~attempted ~failed metrics =
  (match List.filter (fun m -> not (Float.is_finite m.value)) metrics with
  | [] -> ()
  | bad -> fail_run ~attempted ~failed (List.map (fun m -> m.name ^ " is not a number") bad));
  List.iter (fun m -> Printf.printf "  %-28s %16.6f %s\n" m.name m.value m.unit_) metrics;
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    attempted failed
    (String.concat ", " (List.map json_metric metrics))

(* Run until [seconds] have passed (at least [min_runs] times), check
   every run, and demand identical exact counters across them. Every
   [traced_every]-th run is traced (0: none). *)
let repeat ~seconds ~min_runs ~traced_every prepare =
  let start = now () in
  let runs = ref [] in
  let i = ref 0 in
  while !i < min_runs || now () -. start < seconds do
    let traced = traced_every > 0 && !i mod traced_every = traced_every - 1 in
    runs := one_run ~traced prepare :: !runs;
    incr i
  done;
  let runs = List.rev !runs in
  let attempted = List.fold_left (fun a r -> a + r.res.attempted) 0 runs in
  let failed = List.fold_left (fun a r -> a + r.res.failed) 0 runs in
  let errors = List.concat_map (fun r -> r.res.Workloads.errors) runs in
  let errors =
    match runs with
    | first :: rest when List.exists (fun r -> not (same first r)) rest ->
      "exact counters differ between runs of the same seed" :: errors
    | _ -> errors
  in
  if errors <> [] then fail_run ~attempted ~failed:(max failed 1) errors;
  (runs, attempted, failed)

(* The first run, in a fresh process, gives the heap peak and the
   allocation counters: both repeat exactly across processes. It is
   left out of the host-time medians, being the one that grows the
   heap. *)
let end_to_end ~seconds prepare =
  let runs, attempted, failed = repeat ~seconds ~min_runs:4 ~traced_every:0 prepare in
  let first = List.hd runs and timed = List.tl runs in
  let lat = first.res.lat_ns in
  let wall = median (List.map (fun r -> r.wall_s) timed) in
  report ~attempted ~failed
    [ { name = "wall_s"; value = wall; unit_ = "s" };
      { name = "setup_s"; value = median (List.concat_map (fun r -> r.setups) timed); unit_ = "s" };
      { name = "alloc_mw"; value = first.alloc_w /. 1e6; unit_ = "Mw" };
      { name = "major_mw"; value = first.major_w /. 1e6; unit_ = "Mw" };
      { name = "peak_heap_mb"; value = first.heap_mb; unit_ = "MB" };
      { name = "virt_s"; value = float_of_int first.res.virt_ns /. 1e9; unit_ = "s" };
      { name = "virt_peak_rss_mb"; value = float_of_int first.res.peak_rss /. 1e6; unit_ = "MB" };
      { name = "virt_lat_p50_us"; value = percentile lat 0.5 /. 1e3; unit_ = "us" };
      { name = "virt_lat_p99_us"; value = percentile lat 0.99 /. 1e3; unit_ = "us" } ];
  Printf.eprintf "%d runs, %d latency samples per run, fail_ratio %d/%d\n%!" (List.length runs)
    (List.length lat) failed attempted

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME build | shell | web | ipc");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Workloads.names) then begin
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  end;
  let prepare = Workloads.setup !workload !seed in
  if !trace = 0 then end_to_end ~seconds:!seconds prepare
  else
    let runs, attempted, failed = repeat ~seconds:!seconds ~min_runs:2 ~traced_every:2 prepare in
    let untraced = List.filter (fun r -> not r.traced) runs in
    let traced = List.filter (fun r -> r.traced) runs in
    let wall l = median (List.map (fun r -> r.wall_s) l) in
    let last = List.nth traced (List.length traced - 1) in
    let metrics =
      Layers.metrics ~world:(Option.get !last_traced) ~virt_start:last.virt_start
        ~events:last.events ~pal_calls:last.pal_calls ~syscalls:last.syscalls
        ~untraced_wall:(wall untraced) ~traced_wall:(wall traced) ~seed:!seed
    in
    report ~attempted ~failed
      (List.map (fun (name, value, unit_) -> { name; value; unit_ }) metrics)
