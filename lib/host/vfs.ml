(** In-memory host file system.

    A single tree shared by all picoprocesses; isolation is enforced
    above this layer (the LSM checks each path against the opening
    picoprocess's sandbox manifest, and libLinux presents each guest a
    chroot-style view of it — paper §3). Paths are absolute,
    '/'-separated; "." and ".." components are normalized away so the
    LSM cannot be escaped lexically. *)

type file = { mutable data : bytes; mutable size : int }

type node = File of file | Dir of (string, node) Hashtbl.t

(* {1 Dentry cache}

   Bounded memo of path resolutions, positive and negative. Nodes are
   cached by reference, so in-place content changes stay visible; only
   namespace mutations (unlink, rename, create) invalidate. Disabled
   until configured — the simulated host boots without it, and the
   world enables it from the run's config so cache-off ablations
   reproduce the pre-cache walk exactly. *)

type dentry = Present of node | Absent

type dcache_stats = {
  mutable hits : int;
  mutable neg_hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
}

type dcache = {
  mutable enabled : bool;
  mutable capacity : int;
  tbl : (string, dentry) Hashtbl.t;
  order : string Queue.t;  (** insertion order; oldest evicts first *)
  stats : dcache_stats;
  mutable on_event : string -> unit;  (** counter hook (graphene.obs) *)
}

type dprobe = Dhit | Dneg_hit | Dmiss

type t = { root : node; dcache : dcache }

type stat = { st_size : int; st_is_dir : bool }

exception Error of string
(** Raised with an errno-style tag: "ENOENT", "EEXIST", "ENOTDIR",
    "EISDIR", "ENOTEMPTY", "EINVAL". *)

let err tag = raise (Error tag)

let create () =
  { root = Dir (Hashtbl.create 16);
    dcache =
      { enabled = false;
        capacity = 1024;
        tbl = Hashtbl.create 64;
        order = Queue.create ();
        stats = { hits = 0; neg_hits = 0; misses = 0; evictions = 0; invalidations = 0 };
        on_event = ignore } }

let dcache_flush t =
  Hashtbl.reset t.dcache.tbl;
  Queue.clear t.dcache.order

let configure_dcache t ~enabled ~capacity =
  t.dcache.enabled <- enabled;
  t.dcache.capacity <- max 1 capacity;
  if not enabled then dcache_flush t

let set_dcache_hook t f = t.dcache.on_event <- f

let dcache_stats t =
  let s = t.dcache.stats in
  { hits = s.hits;
    neg_hits = s.neg_hits;
    misses = s.misses;
    evictions = s.evictions;
    invalidations = s.invalidations }

(* Normalize an absolute path to its component list. "/a/../b" -> ["b"]. *)
let components path =
  if path = "" || path.[0] <> '/' then err "EINVAL";
  let parts = String.split_on_char '/' path in
  let rec norm acc = function
    | [] -> List.rev acc
    | ("" | ".") :: rest -> norm acc rest
    | ".." :: rest -> norm (match acc with [] -> [] | _ :: t -> t) rest
    | c :: rest -> norm (c :: acc) rest
  in
  norm [] parts

(* An absolute path with no empty, "." or ".." component (so no
   trailing or doubled slash either) is its own normal form. *)
let is_normal path =
  let n = String.length path in
  let rec scan start i =
    if i < n && path.[i] <> '/' then scan start (i + 1)
    else
      let len = i - start in
      len > 0
      && (not (len = 1 && path.[start] = '.'))
      && (not (len = 2 && path.[start] = '.' && path.[start + 1] = '.'))
      && (i = n || scan (i + 1) (i + 1))
  in
  n > 0 && path.[0] = '/' && scan 1 1

let normalize path =
  if is_normal path then path else "/" ^ String.concat "/" (components path)

let rec walk node = function
  | [] -> Some node
  | c :: rest -> (
    match node with
    | File _ -> None
    | Dir entries -> (
      match Hashtbl.find_opt entries c with
      | Some child -> walk child rest
      | None -> None))

(* Oldest live entry goes; keys already invalidated are skipped (their
   queue slots are left behind rather than compacted eagerly). *)
let dc_evict t =
  let d = t.dcache in
  let rec pop () =
    if not (Queue.is_empty d.order) then begin
      let k = Queue.pop d.order in
      if Hashtbl.mem d.tbl k then begin
        Hashtbl.remove d.tbl k;
        d.stats.evictions <- d.stats.evictions + 1;
        d.on_event "vfs.dcache.evict"
      end
      else pop ()
    end
  in
  pop ()

let dc_fill t key entry =
  let d = t.dcache in
  if not (Hashtbl.mem d.tbl key) then begin
    if Hashtbl.length d.tbl >= d.capacity then dc_evict t;
    Queue.push key d.order
  end;
  Hashtbl.replace d.tbl key entry

let dc_invalidate_exact t key =
  let d = t.dcache in
  if d.enabled && Hashtbl.mem d.tbl key then begin
    Hashtbl.remove d.tbl key;
    d.stats.invalidations <- d.stats.invalidations + 1;
    d.on_event "vfs.dcache.invalidate"
  end

(* Drop [key] and everything under it: a rename or unlink changes what
   every descendant path resolves to. *)
let dc_invalidate_subtree t key =
  let d = t.dcache in
  if d.enabled then begin
    let prefix = if key = "/" then "/" else key ^ "/" in
    let doomed =
      Hashtbl.fold
        (fun k _ acc ->
          if k = key || String.starts_with ~prefix k then k :: acc else acc)
        d.tbl []
    in
    List.iter
      (fun k ->
        Hashtbl.remove d.tbl k;
        d.stats.invalidations <- d.stats.invalidations + 1;
        d.on_event "vfs.dcache.invalidate")
      doomed
  end

let lookup t path =
  let d = t.dcache in
  if not d.enabled then walk t.root (components path)
  else begin
    let key = normalize path in
    match Hashtbl.find_opt d.tbl key with
    | Some (Present node) ->
      d.stats.hits <- d.stats.hits + 1;
      d.on_event "vfs.dcache.hit";
      Some node
    | Some Absent ->
      d.stats.neg_hits <- d.stats.neg_hits + 1;
      d.on_event "vfs.dcache.neg_hit";
      None
    | None ->
      d.stats.misses <- d.stats.misses + 1;
      d.on_event "vfs.dcache.miss";
      let r = walk t.root (components path) in
      dc_fill t key (match r with Some n -> Present n | None -> Absent);
      r
  end

(* Pure probe for cost composition in the PAL: does not fill, count,
   or touch eviction order. *)
let dcache_probe t path =
  let d = t.dcache in
  if not d.enabled then Dmiss
  else
    match Hashtbl.find_opt d.tbl (normalize path) with
    | Some (Present _) -> Dhit
    | Some Absent -> Dneg_hit
    | None -> Dmiss

let exists t path = lookup t path <> None

(* The directory that should contain the last component of [path],
   plus that component's name. *)
let parent_of t path =
  match List.rev (components path) with
  | [] -> err "EINVAL"
  | name :: rev_dir -> (
    match walk t.root (List.rev rev_dir) with
    | Some (Dir entries) -> (entries, name)
    | Some (File _) -> err "ENOTDIR"
    | None -> err "ENOENT")

let mkdir t path =
  let entries, name = parent_of t path in
  if Hashtbl.mem entries name then err "EEXIST";
  Hashtbl.replace entries name (Dir (Hashtbl.create 8));
  (* a cached negative entry for this path is now wrong *)
  dc_invalidate_exact t (normalize path)

let rec mkdir_p t path =
  match lookup t path with
  | Some (Dir _) -> ()
  | Some (File _) -> err "ENOTDIR"
  | None ->
    (match components path with
    | [] -> ()
    | comps ->
      let parent = "/" ^ String.concat "/" (List.rev (List.tl (List.rev comps))) in
      mkdir_p t parent;
      mkdir t path)

let create_file t path =
  let entries, name = parent_of t path in
  match Hashtbl.find_opt entries name with
  | Some (File f) ->
    (* truncate, like O_CREAT|O_TRUNC; same object, cache stays valid *)
    f.data <- Bytes.empty;
    f.size <- 0;
    f
  | Some (Dir _) -> err "EISDIR"
  | None ->
    let f = { data = Bytes.empty; size = 0 } in
    Hashtbl.replace entries name (File f);
    dc_invalidate_exact t (normalize path);
    f

let find_file t path =
  match lookup t path with
  | Some (File f) -> f
  | Some (Dir _) -> err "EISDIR"
  | None -> err "ENOENT"

let file_size f = f.size

let ensure_capacity f n =
  if Bytes.length f.data < n then begin
    let cap = Stdlib.max n (Stdlib.max 64 (2 * Bytes.length f.data)) in
    let data = Bytes.make cap '\000' in
    Bytes.blit f.data 0 data 0 f.size;
    f.data <- data
  end

let write_file f ~off s =
  if off < 0 then err "EINVAL";
  let n = String.length s in
  ensure_capacity f (off + n);
  (* a sparse hole between size and off reads back as zeros *)
  Bytes.blit_string s 0 f.data off n;
  f.size <- Stdlib.max f.size (off + n)

let append_file f s = write_file f ~off:f.size s

let read_file f ~off ~len =
  if off < 0 || len < 0 then err "EINVAL";
  if off >= f.size then ""
  else begin
    let n = Stdlib.min len (f.size - off) in
    Bytes.sub_string f.data off n
  end

let read_all f = Bytes.sub_string f.data 0 f.size

let truncate f n =
  if n < 0 then err "EINVAL";
  ensure_capacity f n;
  f.size <- n

let unlink t path =
  let entries, name = parent_of t path in
  (match Hashtbl.find_opt entries name with
  | Some (File _) -> Hashtbl.remove entries name
  | Some (Dir d) -> if Hashtbl.length d = 0 then Hashtbl.remove entries name else err "ENOTEMPTY"
  | None -> err "ENOENT");
  dc_invalidate_subtree t (normalize path)

let rename t ~src ~dst =
  let src_entries, src_name = parent_of t src in
  match Hashtbl.find_opt src_entries src_name with
  | None -> err "ENOENT"
  | Some node ->
    let dst_entries, dst_name = parent_of t dst in
    (match Hashtbl.find_opt dst_entries dst_name with
    | Some (Dir d) when Hashtbl.length d > 0 -> err "ENOTEMPTY"
    | _ -> ());
    Hashtbl.remove src_entries src_name;
    Hashtbl.replace dst_entries dst_name node;
    (* both subtrees resolve differently now: src is gone, dst holds
       the moved node (and its descendants) *)
    dc_invalidate_subtree t (normalize src);
    dc_invalidate_subtree t (normalize dst)

let readdir t path =
  match lookup t path with
  | Some (Dir entries) ->
    Hashtbl.fold (fun name _ acc -> name :: acc) entries [] |> List.sort compare
  | Some (File _) -> err "ENOTDIR"
  | None -> err "ENOENT"

let stat t path =
  match lookup t path with
  | Some (File f) -> { st_size = f.size; st_is_dir = false }
  | Some (Dir _) -> { st_size = 0; st_is_dir = true }
  | None -> err "ENOENT"

let write_string t path s =
  mkdir_p t (Filename.dirname path);
  let f = create_file t path in
  write_file f ~off:0 s

let read_string t path = read_all (find_file t path)

let depth path = List.length (components path)
