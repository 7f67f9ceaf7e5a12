(** Picoprocess address spaces with copy-on-write page frames.

    Frames are reference-counted across address spaces; bulk IPC and
    fork share frames, and the first write to a shared frame copies it
    (charging {!Graphene_sim.Cost.cow_fault} — done by the caller).
    Resident-set and proportional-set sizes drive the Figure 4 memory
    footprint experiment. *)

let page_size = Graphene_sim.Cost.page_size

type perm = { r : bool; w : bool; x : bool }

let rw = { r = true; w = true; x = false }
let rx = { r = true; w = false; x = true }
let ro = { r = true; w = false; x = false }

type kind =
  | Pal_code
  | Libos_image
  | App_image
  | Heap
  | Mmap
  | Stack

(* A frame whose every byte is [c] can read from [c]'s constant page,
   which is shared by every such frame and never written itself. A
   never-written frame is on the ['\000'] page ([zero_page]), and a
   page-sized [fill] puts a frame on its byte's page; the frame gets its
   own 4 KiB just before a write changes only part of it
   ([page_frame ~write]). Payloads are host storage only: residency,
   refcounts and every modeled number are the same as if each frame
   owned its bytes. *)
type frame = { fid : int; mutable refcount : int; mutable data : bytes }

(* Indexed by byte value; [Bytes.empty] until that byte's page is first
   used. *)
let const_pages = Array.make 256 Bytes.empty

let const_page c =
  let p = const_pages.(Char.code c) in
  if p != Bytes.empty then p
  else begin
    let p = Bytes.make page_size c in
    const_pages.(Char.code c) <- p;
    p
  end

let zero_page = const_page '\000'

(* Only [c]'s own page can be [c]'s constant page, and every payload
   is a page long, so its first byte names the one candidate. *)
let is_const data = const_pages.(Char.code (Bytes.unsafe_get data 0)) == data

type region = {
  base : int;
  npages : int;
  mutable perm : perm;
  kind : kind;
  frames : frame option array;  (** [None] = not resident *)
}

type allocator = { mutable next_fid : int; mutable live_frames : int }

type t = {
  alloc : allocator;
  mutable regions : region list;  (** sorted by base, non-overlapping *)
  mutable cow_faults : int;
  mutable resident : int;  (** frames held by [regions], kept by every map and unmap *)
}

exception Fault of int
(** Access to an unmapped or permission-violating address. *)

let make_allocator () = { next_fid = 0; live_frames = 0 }

let create alloc = { alloc; regions = []; cow_faults = 0; resident = 0 }

let pages_of_bytes n = (n + page_size - 1) / page_size

let frame_of alloc data =
  alloc.next_fid <- alloc.next_fid + 1;
  alloc.live_frames <- alloc.live_frames + 1;
  { fid = alloc.next_fid; refcount = 1; data }

let new_frame alloc = frame_of alloc zero_page

let drop_frame alloc frame =
  frame.refcount <- frame.refcount - 1;
  if frame.refcount = 0 then alloc.live_frames <- alloc.live_frames - 1

let region_end r = r.base + (r.npages * page_size)

let overlaps a_base a_end r = a_base < region_end r && r.base < a_end

let check_no_overlap t ~base ~npages =
  let e = base + (npages * page_size) in
  if List.exists (overlaps base e) t.regions then
    invalid_arg (Printf.sprintf "Memory.map: overlap at 0x%x" base)

let insert t r =
  t.regions <- List.sort (fun a b -> compare a.base b.base) (r :: t.regions)

let map t ~base ~npages ~perm ~kind =
  if base mod page_size <> 0 then invalid_arg "Memory.map: unaligned base";
  if npages <= 0 then invalid_arg "Memory.map: npages <= 0";
  check_no_overlap t ~base ~npages;
  let r = { base; npages; perm; kind; frames = Array.make npages None } in
  insert t r;
  r

(* Map and make resident immediately — a loaded code/data image. *)
let map_resident t ~base ~npages ~perm ~kind =
  let r = map t ~base ~npages ~perm ~kind in
  for i = 0 to npages - 1 do
    r.frames.(i) <- Some (new_frame t.alloc)
  done;
  t.resident <- t.resident + npages;
  r

let find_region t addr =
  List.find_opt (fun r -> addr >= r.base && addr < region_end r) t.regions

let region_at t addr =
  match find_region t addr with Some r -> r | None -> raise (Fault addr)

type touch_result = Resident | Faulted_in | Cow_copied

(* The region holding [addr], if it permits the access. *)
let accessible_region t addr ~write =
  let r = region_at t addr in
  if (write && not r.perm.w) || ((not write) && not r.perm.r) then raise (Fault addr);
  r

(* Page [idx] of [r], made resident; on a write to a shared frame, the
   share is broken with a new frame that keeps reading a constant page
   but copies any other payload. A share broken for a page the caller
   is about to overwrite [whole] copies nothing. *)
let resident_frame t r idx ~write ~whole =
  match r.frames.(idx) with
  | None ->
    let frame = new_frame t.alloc in
    r.frames.(idx) <- Some frame;
    t.resident <- t.resident + 1;
    frame
  | Some frame when write && frame.refcount > 1 ->
    let data =
      if whole then zero_page else if is_const frame.data then frame.data else Bytes.copy frame.data
    in
    let copy = frame_of t.alloc data in
    drop_frame t.alloc frame;
    r.frames.(idx) <- Some copy;
    t.cow_faults <- t.cow_faults + 1;
    copy
  | Some frame -> frame

(* [resident_frame], and on a write a frame still on a constant page
   gets its own bytes; a [whole] overwrite does not copy them first. *)
let page_frame t r idx ~write ~whole =
  let frame = resident_frame t r idx ~write ~whole in
  if write && is_const frame.data then
    frame.data <- (if whole then Bytes.create page_size else Bytes.copy frame.data);
  frame

(* Make the page containing [addr] resident; on a write to a shared
   frame, break the share with a private copy. *)
let touch t addr ~write =
  let r = accessible_region t addr ~write in
  let idx = (addr - r.base) / page_size in
  let was_resident = r.frames.(idx) <> None and cows = t.cow_faults in
  ignore (page_frame t r idx ~write ~whole:false);
  if not was_resident then Faulted_in else if t.cow_faults > cows then Cow_copied else Resident

(* Is the page containing [addr] resident, without faulting it in? *)
let resident t addr =
  match find_region t addr with
  | None -> false
  | Some r -> r.frames.((addr - r.base) / page_size) <> None

(* Byte-granularity access: hand [f] each page that [n] bytes from
   [addr] span, as (region, page index, offset in page, offset in the
   data, length). A region is looked up once, not once per page. *)
let iter_pages t addr n ~write f =
  let rec loop r off =
    if off < n then begin
      let a = addr + off in
      if a >= region_end r then loop (accessible_region t a ~write) off
      else begin
        let page_off = a mod page_size in
        let take = Stdlib.min (n - off) (page_size - page_off) in
        f r ((a - r.base) / page_size) page_off off take;
        loop r (off + take)
      end
    end
  in
  if n > 0 then loop (accessible_region t addr ~write) 0

(* Does every byte of [addr, addr + n) lie in a region that permits the
   access? Nothing is faulted in. *)
let accessible t addr n ~write =
  let rec from off =
    off >= n
    ||
    match find_region t (addr + off) with
    | Some r when if write then r.perm.w else r.perm.r -> from (region_end r - addr)
    | _ -> false
  in
  from 0

(* Returns the number of COW copies performed so the caller can charge
   fault costs. *)
let write_bytes t addr s =
  let cows = t.cow_faults in
  iter_pages t addr (String.length s) ~write:true (fun r idx page_off off take ->
      let frame = page_frame t r idx ~write:true ~whole:(take = page_size) in
      Bytes.blit_string s off frame.data page_off take);
  t.cow_faults - cows

(* [write_bytes t addr (String.make n c)] without the string: a page the
   fill covers whole reads from [c]'s constant page. *)
let fill t addr c n =
  let cows = t.cow_faults in
  iter_pages t addr n ~write:true (fun r idx page_off _ take ->
      if take = page_size then (resident_frame t r idx ~write:true ~whole:true).data <- const_page c
      else Bytes.fill (page_frame t r idx ~write:true ~whole:false).data page_off take c);
  t.cow_faults - cows

let read_bytes t addr n =
  let buf = Bytes.create (Stdlib.max n 0) in
  iter_pages t addr n ~write:false (fun r idx page_off off take ->
      let frame = page_frame t r idx ~write:false ~whole:false in
      Bytes.blit frame.data page_off buf off take);
  Bytes.unsafe_to_string buf

let protect t ~base ~npages ~perm =
  match find_region t base with
  | Some r when r.base = base && r.npages = npages -> r.perm <- perm
  | Some _ -> invalid_arg "Memory.protect: partial-region protect not supported"
  | None -> raise (Fault base)

let unmap t ~base =
  match find_region t base with
  | None -> raise (Fault base)
  | Some r ->
    Array.iter
      (function
        | Some f ->
          drop_frame t.alloc f;
          t.resident <- t.resident - 1
        | None -> ())
      r.frames;
    t.regions <- List.filter (fun r' -> r' != r) t.regions

(* Share [npages] starting at [src_base] of [src] into [dst] at
   [dst_base]; frames become copy-on-write in both spaces. This is the
   mechanism under both fork and the bulk-IPC (gipc) ABI. Returns the
   number of frames granted. *)
let share_range ~src ~dst ~src_base ~dst_base ~npages ~kind =
  let src_region = region_at src src_base in
  if src_base <> src_region.base || npages > src_region.npages then
    invalid_arg "Memory.share_range: must cover a region prefix";
  check_no_overlap dst ~base:dst_base ~npages;
  let dst_region =
    { base = dst_base; npages; perm = src_region.perm; kind; frames = Array.make npages None }
  in
  let granted = ref 0 in
  for i = 0 to npages - 1 do
    match src_region.frames.(i) with
    | Some frame ->
      frame.refcount <- frame.refcount + 1;
      dst_region.frames.(i) <- Some frame;
      incr granted
    | None -> ()
  done;
  insert dst dst_region;
  dst.resident <- dst.resident + !granted;
  !granted

(* Fork-style duplication of the whole address space: every region
   shared copy-on-write. Returns total granted frames. *)
let share_all ~src ~dst =
  List.fold_left
    (fun acc r ->
      acc
      + share_range ~src ~dst ~src_base:r.base ~dst_base:r.base ~npages:r.npages
          ~kind:r.kind)
    0 src.regions

(* {1 Shared images}

   Code images (PAL, libOS, application binaries) are loaded once and
   shared across picoprocesses, the way a host page cache shares file-
   backed text pages. *)

type image = { img_frames : frame array }

let make_image alloc ~bytes =
  let n = pages_of_bytes bytes in
  { img_frames = Array.init n (fun _ -> new_frame alloc) }

let image_bytes img = Array.length img.img_frames * page_size

let map_image t ~base ~image ~perm ~kind =
  let npages = Array.length image.img_frames in
  check_no_overlap t ~base ~npages;
  let frames =
    Array.map
      (fun f ->
        f.refcount <- f.refcount + 1;
        Some f)
      image.img_frames
  in
  let r = { base; npages; perm; kind; frames } in
  insert t r;
  t.resident <- t.resident + npages;
  r

let destroy t =
  List.iter (fun r -> Array.iter (function Some f -> drop_frame t.alloc f | None -> ()) r.frames) t.regions;
  t.regions <- [];
  t.resident <- 0

(* Resident set size: every resident frame counted fully. *)
let rss t = t.resident * page_size

(* Proportional set size: shared frames split between their holders —
   what "incremental memory of a forked child" measures. *)
let pss t =
  List.fold_left
    (fun acc r ->
      Array.fold_left
        (fun a -> function
          | Some f -> a +. (float_of_int page_size /. float_of_int f.refcount)
          | None -> a)
        acc r.frames)
    0.0 t.regions
  |> int_of_float

let resident_pages t = t.resident

let system_bytes alloc = alloc.live_frames * page_size
let cow_faults t = t.cow_faults
let regions t = t.regions
let region_kind r = r.kind
let region_base r = r.base
let region_npages r = r.npages
