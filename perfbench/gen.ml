(* Seeded input generation. Every workload input the program receives
   is made here from the benchmark's --seed; the simulator itself runs
   at noise 0, so the seed changes the inputs and nothing else.

   Varied quantities are drawn in +/- pairs around a fixed mean, so the
   total work of a workload is the same for every seed and only its
   distribution moves: a seed changes which file is big, not how much
   there is to do. *)

let rng seed = Random.State.make [| 0x9e37; seed |]

(* [n] integers around [mean], each within [mean * (1 +/- spread)], in
   shuffled order, summing to exactly [n * mean]. *)
let around st ~n ~mean ~spread =
  let a = Array.make n mean in
  let span = int_of_float (float_of_int mean *. spread) in
  for i = 0 to (n / 2) - 1 do
    let d = if span = 0 then 0 else Random.State.int st (span + 1) in
    a.(2 * i) <- mean + d;
    a.((2 * i) + 1) <- mean - d
  done;
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* {1 build: per-file WORK/PROBES around the Table 5a libLinux row} *)

type build = { files : int; jobs : int; work : int array; probes : int array }

let build_files = 78
let build_jobs = 4

let build seed =
  let st = rng seed in
  let work = around st ~n:build_files ~mean:44_500_000 ~spread:0.1 in
  let probes = around st ~n:build_files ~mean:3_400 ~spread:0.2 in
  { files = build_files; jobs = build_jobs; work; probes }

(* {1 shell: the Unix-utils script, command order per iteration drawn
   from the seed} *)

type shell = { iterations : int; script : string; expect_lines : int }

let shell_iterations = 50

(* The six commands of the Unix-utils row. [cp] must precede [rm] (rm
   of a missing file would fail), so an iteration is a shuffle of the
   six with that one constraint enforced by swapping. *)
let shell seed =
  let st = rng seed in
  let cmds = [ `Cp; `Rm; `Ls; `Cat; `Date; `Echo ] in
  let buf = Buffer.create (shell_iterations * 96) in
  let lines = ref 0 in
  (* /tmp holds f.txt and the script itself; g.txt while a copy lives *)
  let copied = ref false in
  for _ = 1 to shell_iterations do
    let order = shuffle st cmds in
    let rec fix = function
      | `Rm :: rest when List.mem `Cp rest ->
        `Cp :: List.map (fun c -> if c = `Cp then `Rm else c) rest
      | c :: rest -> c :: fix rest
      | [] -> []
    in
    List.iter
      (fun c ->
        match c with
        | `Cp ->
          Buffer.add_string buf "cp /tmp/f.txt /tmp/g.txt\n";
          copied := true
        | `Rm ->
          Buffer.add_string buf "rm /tmp/g.txt\n";
          copied := false
        | `Ls ->
          Buffer.add_string buf "ls /tmp\n";
          lines := !lines + if !copied then 3 else 2
        | `Cat -> Buffer.add_string buf "cat /tmp/f.txt\n"
        | `Date ->
          Buffer.add_string buf "date\n";
          incr lines
        | `Echo ->
          Buffer.add_string buf "echo hello world\n";
          incr lines)
      (fix order)
  done;
  { iterations = shell_iterations; script = Buffer.contents buf; expect_lines = !lines }

(* {1 web: docroot file sizes and the request sequence} *)

type web = {
  docs : (string * string) list;  (** request path, body *)
  requests : string array;  (** request paths, in the order they are sent *)
  clients : int;
  workers : int;
}

let web_docs = 20
let web_requests = 5_000
let web_clients = 25
let web_workers = 4

let web seed =
  let st = rng seed in
  let sizes = around st ~n:web_docs ~mean:800 ~spread:0.8 in
  let docs =
    List.init web_docs (fun i ->
        let body = String.init sizes.(i) (fun _ -> Char.chr (97 + Random.State.int st 26)) in
        (Printf.sprintf "/pb/d%02d.html" i, body))
  in
  (* every document is fetched equally often, in a seeded order *)
  let paths = List.init web_requests (fun i -> fst (List.nth docs (i mod web_docs))) in
  { docs;
    requests = Array.of_list (shuffle st paths);
    clients = web_clients;
    workers = web_workers }

(* {1 ipc: message payload sizes for each round} *)

type ipc = {
  rounds : int;
  depth : int;  (** messages each side sends per round *)
  parent_sizes : int array array;
  child_sizes : int array array;
}

let ipc_rounds = 10
let ipc_depth = 1_000

let ipc seed =
  let st = rng seed in
  let sizes () = around st ~n:ipc_depth ~mean:64 ~spread:0.9 in
  let parent_sizes = Array.init ipc_rounds (fun _ -> sizes ()) in
  let child_sizes = Array.init ipc_rounds (fun _ -> sizes ()) in
  { rounds = ipc_rounds; depth = ipc_depth; parent_sizes; child_sizes }
