(** The native-Linux baseline personality.

    Services the same guest system-call ABI as {!Graphene_liblinux.Lx}
    but the way a monolithic kernel does: directly against host kernel
    state, with the paper's measured native costs (Table 6 Linux
    column), kernel-resident System V IPC, in-kernel process tables and
    direct signal delivery. No PAL, no seccomp filter, no reference
    monitor, no RPC.

    An optional {!vm} profile layers the KVM guest model on top: a
    one-time boot cost, fixed VM memory, and virtio overhead on network
    operations — the third column of the paper's comparisons. *)

open Graphene_sim
module K = Graphene_host.Kernel
module Memory = Graphene_host.Memory
module Stream = Graphene_host.Stream
module Vfs = Graphene_host.Vfs
module Ast = Graphene_guest.Ast
module Interp = Graphene_guest.Interp
module Loader = Graphene_liblinux.Loader
module Signal = Graphene_liblinux.Signal
module Errno = Graphene_liblinux.Errno
module Memcall = Graphene_liblinux.Memcall
module E = Graphene_core.Errno

(* Native memory layout: tuned so "hello world" is ~352 KB resident. *)
let app_image_bytes = 64 * 1024
let libc_image_bytes = 256 * 1024
let stack_bytes = 32 * 1024

type vm = {
  vm_name : string;
  boot : Time.t;
  syscall_extra : Time.t;
  net_extra : Time.t;  (** bridged-virtio per network operation *)
  cpu_tax : float;  (** nested-paging / TLB overhead on guest compute *)
  guest_ram : int;
  device_overhead : int;
  ckpt_image : int;  (** bytes written at VM checkpoint (the RAM image) *)
}

let kvm_profile =
  { vm_name = "KVM";
    boot = Cost.kvm_boot;
    syscall_extra = Cost.kvm_syscall_overhead;
    net_extra = Cost.virtio_net_overhead;
    cpu_tax = 1.035;
    guest_ram = Cost.kvm_min_ram;
    device_overhead = Cost.qemu_device_overhead;
    ckpt_image = Cost.kvm_min_ram - (23 * 1024 * 1024) }

type epoll_state = { mutable interest : int list }

type fd_kind =
  | Kfile of string
  | Kconsole
  | Knull
  | Kzero
  | Kstream of { sock : bool }
  | Klisten of int
  | Kproc of string
  | Kepoll of epoll_state

(* Open file description: shared across dup and fork, with a shared
   seek cursor — stock POSIX semantics. *)
type ofile = {
  mutable handle : K.handle option;
  mutable okind : fd_kind;
  mutable pos : int;
  mutable refs : int;
}

type msgq_k = {
  kq_id : int;
  mutable kq_msgs : string list;
  mutable kq_waiters : (string -> unit) list;
}

type sem_k = { ks_id : int; mutable ks_count : int; mutable ks_waiters : (unit -> unit) list }

type ctx = {
  kernel : K.t;
  vm : vm option;
  procs : (int, proc) Hashtbl.t;
  mutable next_pid : int;
  (* System V IPC lives in kernel memory and survives processes *)
  key_to_q : (int, int) Hashtbl.t;
  queues : (int, msgq_k) Hashtbl.t;
  key_to_sem : (int, int) Hashtbl.t;
  sems : (int, sem_k) Hashtbl.t;
  mutable next_rid : int;
  mutable booted_at : Time.t option;  (** when the VM finished booting *)
}

and proc = {
  ctx : ctx;
  pid : int;
  mutable ppid : int;
  mutable pgid : int;
  pico : K.pico;
  fds : (int, ofile) Hashtbl.t;
  mutable next_fd : int;
  mutable cwd : string;
  mutable exe : string;
  sigactions : (int, string) Hashtbl.t;
  mutable sig_pending : int list;
  mutable sig_blocked : int list;
  children : (int, child) Hashtbl.t;
  mutable wait_waiters : (int option * (int * int -> unit)) list;
  mutable pause_waiters : K.thread list;
  console : Buffer.t;
  mutable on_console : (string -> unit) option;
  mutable brk : int;
  mutable heap_mapped : int;
  mutable next_mmap : int;
  threads : (int, K.thread) Hashtbl.t;
  thread_guest_tid : (int, int) Hashtbl.t;
  mutable done_tids : int list;
  mutable join_waiters : (int * K.thread) list;
  mutable next_tid_seq : int;
  mutable main_thread : K.thread option;
  mutable exited : bool;
  mutable exit_code : int;
  mutable started_at : Time.t option;
  mutable alarm_seq : int;
  mutable umask : int;
}

and child = { c_pid : int; mutable c_status : [ `Running | `Zombie of int ] }

let create ?vm kernel =
  let ctx =
    { kernel;
      vm;
      procs = Hashtbl.create 16;
      next_pid = 0;
      key_to_q = Hashtbl.create 8;
      queues = Hashtbl.create 8;
      key_to_sem = Hashtbl.create 8;
      sems = Hashtbl.create 8;
      next_rid = 1;
      booted_at = None }
  in
  (match vm with
  | Some v -> K.after kernel v.boot (fun () -> ctx.booted_at <- Some (K.now kernel))
  | None -> ctx.booted_at <- Some (K.now kernel));
  ctx

let vm_memory ctx =
  match ctx.vm with Some v -> v.guest_ram + v.device_overhead | None -> 0

let console_output p = Buffer.contents p.console
let exited p = p.exited
let exit_code p = p.exit_code
let proc_pid p = p.pid
let started_at p = p.started_at
let kernel_of p = p.ctx.kernel
let pico_of p = p.pico

let vint n = Ast.Vint n
let vstr s = Ast.Vstr s
let err tag = Errno.to_value tag

(* Trap + kernel entry; VMs add their exit cost on some paths. *)
let entry ctx = Time.add Cost.host_syscall_entry (match ctx.vm with Some v -> v.syscall_extra | None -> Time.zero)

let net_cost ctx = match ctx.vm with Some v -> v.net_extra | None -> Time.zero

let abspath p path =
  if path = "" then p.cwd
  else if path.[0] = '/' then path
  else if p.cwd = "/" then "/" ^ path
  else p.cwd ^ "/" ^ path

let alloc_fd p ofile =
  let fd = p.next_fd in
  p.next_fd <- fd + 1;
  Hashtbl.replace p.fds fd ofile;
  fd

let new_ofile ?handle kind = { handle; okind = kind; pos = 0; refs = 1 }

let init_std_fds p =
  Hashtbl.replace p.fds 0 (new_ofile Knull);
  Hashtbl.replace p.fds 1 (new_ofile Kconsole);
  Hashtbl.replace p.fds 2 (new_ofile Kconsole);
  p.next_fd <- 3

(* {1 Signals} *)

let apply_pending_signals p m =
  let rec loop m = function
    | [] -> `Machine m
    | signum :: rest ->
      if List.mem signum p.sig_blocked then begin
        match loop m rest with
        | `Machine m' ->
          p.sig_pending <- signum :: p.sig_pending;
          `Machine m'
        | other -> other
      end
      else begin
        match Hashtbl.find_opt p.sigactions signum with
        | Some handler when Interp.has_func m handler && Signal.catchable signum ->
          loop (Interp.interrupt m ~func:handler ~args:[ Ast.Vint signum ]) rest
        | _ -> (
          match Signal.default_action signum with
          | Signal.Ignore | Signal.Continue | Signal.Stop -> loop m rest
          | Signal.Terminate -> `Exit (128 + signum))
      end
  in
  let pending = p.sig_pending in
  p.sig_pending <- [];
  loop m pending

let release_fd p fd =
  match Hashtbl.find_opt p.fds fd with
  | None -> ()
  | Some o ->
    Hashtbl.remove p.fds fd;
    o.refs <- o.refs - 1;
    if o.refs = 0 then begin
      match o.handle with
      | Some { K.obj = K.Hstream ep; _ } -> K.close_endpoint_ordered p.ctx.kernel ep
      | Some { K.obj = K.Hserver srv; _ } -> srv.K.srv_closed <- true
      | _ -> ()
    end

let rec do_exit p code =
  if not p.exited then begin
    p.exited <- true;
    p.exit_code <- code;
    List.iter (fun fd -> release_fd p fd) (Hashtbl.fold (fun fd _ acc -> fd :: acc) p.fds []);
    Hashtbl.remove p.ctx.procs p.pid;
    (* direct in-kernel exit notification to the parent *)
    (match Hashtbl.find_opt p.ctx.procs p.ppid with
    | Some parent -> mark_zombie parent p.pid code
    | None -> ());
    K.pico_exit p.ctx.kernel p.pico code
  end

and continue p th m ~cost =
  if not p.exited then begin
    match apply_pending_signals p m with
    | `Exit code -> do_exit p code
    | `Machine m -> K.set_machine p.ctx.kernel th m ~cost
  end

and finish p th ?(cost = Time.zero) v =
  if not p.exited then begin
    match th.K.machine with
    | None -> ()
    | Some m -> continue p th (Interp.resume m v) ~cost:(Time.add (entry p.ctx) cost)
  end

and fail p th ?cost tag = finish p th ?cost (err tag)

and post_signal p signum =
  if p.exited then false
  else if signum = Signal.sigkill then begin
    do_exit p (128 + signum);
    true
  end
  else begin
    p.sig_pending <- p.sig_pending @ [ signum ];
    let pausers = p.pause_waiters in
    p.pause_waiters <- [];
    List.iter (fun th -> fail p th E.EINTR) pausers;
    (match p.main_thread with
    | Some th when th.K.tstate = `Runnable -> (
      match th.K.machine with
      | Some m -> (
        match apply_pending_signals p m with
        | `Exit code -> do_exit p code
        | `Machine m' -> th.K.machine <- Some m')
      | None -> ())
    | _ -> ());
    true
  end

and mark_zombie p cpid code =
  match Hashtbl.find_opt p.children cpid with
  | Some c when c.c_status = `Running ->
    c.c_status <- `Zombie code;
    ignore (post_signal p Signal.sigchld);
    let rec take acc = function
      | [] -> None
      | ((filt, k) as w) :: rest -> (
        match filt with
        | Some q when q <> cpid -> take (w :: acc) rest
        | _ -> Some (k, List.rev_append acc rest))
    in
    (match take [] p.wait_waiters with
    | Some (k, rest) ->
      p.wait_waiters <- rest;
      Hashtbl.remove p.children cpid;
      k (cpid, code)
    | None -> ())
  | _ -> ()

(* {1 Memory layout} *)

let map_images p ~app_bytes =
  let kern = p.ctx.kernel in
  let asp = p.pico.K.aspace in
  let libc = K.get_image kern ~name:"[native-libc]" ~bytes:libc_image_bytes in
  ignore
    (Memory.map_image asp ~base:(K.libos_base + 0x0100_0000) ~image:libc ~perm:Memory.rx
       ~kind:Memory.Libos_image);
  ignore
    (Memory.map_resident asp ~base:K.stack_base ~npages:(Memory.pages_of_bytes stack_bytes)
       ~perm:Memory.rw ~kind:Memory.Stack);
  let app = K.get_image kern ~name:("[native-bin]" ^ p.exe) ~bytes:app_bytes in
  ignore (Memory.map_image asp ~base:K.app_base ~image:app ~perm:Memory.rx ~kind:Memory.App_image);
  K.update_peak_rss p.pico

(* {1 Process construction} *)

let make_proc ctx ~pid ~ppid ~pgid ~exe ~pico =
  { ctx;
    pid;
    ppid;
    pgid;
    pico;
    fds = Hashtbl.create 16;
    next_fd = 3;
    cwd = "/";
    exe;
    sigactions = Hashtbl.create 8;
    sig_pending = [];
    sig_blocked = [];
    children = Hashtbl.create 8;
    wait_waiters = [];
    pause_waiters = [];
    console = Buffer.create 256;
    on_console = None;
    brk = 0;
    heap_mapped = 0;
    next_mmap = K.heap_base + 0x0800_0000;
    threads = Hashtbl.create 4;
    thread_guest_tid = Hashtbl.create 4;
    done_tids = [];
    join_waiters = [];
    next_tid_seq = 1;
    main_thread = None;
    exited = false;
    exit_code = 0;
    started_at = None;
    alarm_seq = 0;
    umask = 0o022 }

(* {1 The dispatcher} *)

let rec dispatch p th name args =
  try dispatch_inner p th name args with Ast.Guest_fault _ -> fail p th E.EINVAL

and dispatch_inner p th name args =
  let ctx = p.ctx in
  let kern = ctx.kernel in
  let a n =
    match List.nth_opt args n with
    | Some v -> v
    | None -> raise (Ast.Guest_fault (Printf.sprintf "%s: missing argument %d" name n))
  in
  let int_arg n = Ast.as_int (a n) in
  let str_arg n = Ast.as_str (a n) in
  let file_of_fd fd =
    match Hashtbl.find_opt p.fds fd with
    | Some o -> Some o
    | None -> None
  in
  match name with
  | "getpid" -> finish p th (vint p.pid)
  | "getppid" -> finish p th (vint p.ppid)
  | "getpgid" -> finish p th (vint p.pgid)
  | "setpgid" ->
    p.pgid <- int_arg 0;
    finish p th (vint 0)
  | "gettid" ->
    finish p th (vint (Option.value ~default:p.pid (Hashtbl.find_opt p.thread_guest_tid th.K.tid)))
  | "getuid" | "geteuid" -> finish p th (vint 1000)
  | "uname" -> finish p th (vstr "Linux native 3.5.0 x86_64")
  | "sysinfo" -> finish p th (vint kern.K.cores)
  | "getrss" -> finish p th (vint (Memory.rss p.pico.K.aspace))
  | "print" ->
    (* variadic: all string arguments are concatenated *)
    let s = String.concat "" (List.map Ast.as_str args) in
    ignore (str_arg : int -> string);
    Buffer.add_string p.console s;
    (match p.on_console with Some f -> f s | None -> ());
    finish p th ~cost:(Time.ns 150) (vint (String.length s))
  (* {2 Files: direct VFS access with native costs} *)
  | "open" -> do_open p th (abspath p (str_arg 0)) (str_arg 1)
  | "close" -> (
    match file_of_fd (int_arg 0) with
    | None -> fail p th E.EBADF
    | Some _ ->
      release_fd p (int_arg 0);
      finish p th ~cost:(Time.ns 120) (vint 0))
  | "read" -> do_read p th (int_arg 0) (int_arg 1)
  | "write" -> do_write p th (int_arg 0) (str_arg 1)
  | "lseek" -> (
    match file_of_fd (int_arg 0) with
    | Some ({ okind = Kfile path; _ } as o) -> (
      let off = int_arg 1 in
      match str_arg 2 with
      | "set" ->
        o.pos <- off;
        finish p th (vint o.pos)
      | "cur" ->
        o.pos <- o.pos + off;
        finish p th (vint o.pos)
      | "end" -> (
        match Vfs.stat kern.K.fs path with
        | st ->
          o.pos <- st.Vfs.st_size + off;
          finish p th (vint o.pos)
        | exception Vfs.Error e -> fail p th (E.of_string e))
      | _ -> fail p th E.EINVAL)
    | Some _ -> fail p th E.ESPIPE
    | None -> fail p th E.EBADF)
  | "stat" | "access" -> (
    let path = abspath p (str_arg 0) in
    let cost = Time.add (Time.ns 700) (Time.scale Cost.path_component (float_of_int (Vfs.depth path))) in
    match Vfs.stat kern.K.fs path with
    | st ->
      if name = "access" then finish p th ~cost (vint 0)
      else finish p th ~cost (Ast.Vpair (vint st.Vfs.st_size, vint (if st.Vfs.st_is_dir then 1 else 0)))
    | exception Vfs.Error e -> fail p th (E.of_string e))
  | "unlink" -> (
    match Vfs.unlink kern.K.fs (abspath p (str_arg 0)) with
    | () -> finish p th ~cost:Cost.host_open (vint 0)
    | exception Vfs.Error e -> fail p th (E.of_string e))
  | "rename" -> (
    match Vfs.rename kern.K.fs ~src:(abspath p (str_arg 0)) ~dst:(abspath p (str_arg 1)) with
    | () -> finish p th ~cost:Cost.host_open (vint 0)
    | exception Vfs.Error e -> fail p th (E.of_string e))
  | "mkdir" -> (
    match Vfs.mkdir_p kern.K.fs (abspath p (str_arg 0)) with
    | () -> finish p th ~cost:Cost.host_open (vint 0)
    | exception Vfs.Error e -> fail p th (E.of_string e))
  | "readdir" -> (
    match Vfs.readdir kern.K.fs (abspath p (str_arg 0)) with
    | names -> finish p th ~cost:(Time.us 1.0) (Ast.Vlist (List.map (fun n -> vstr n) names))
    | exception Vfs.Error e -> fail p th (E.of_string e))
  | "chdir" -> (
    let path = abspath p (str_arg 0) in
    match Vfs.stat kern.K.fs path with
    | { Vfs.st_is_dir = true; _ } ->
      p.cwd <- path;
      finish p th (vint 0)
    | _ -> fail p th E.ENOTDIR
    | exception Vfs.Error e -> fail p th (E.of_string e))
  | "getcwd" -> finish p th (vstr p.cwd)
  | "dup" -> (
    match file_of_fd (int_arg 0) with
    | None -> fail p th E.EBADF
    | Some o ->
      o.refs <- o.refs + 1;
      finish p th ~cost:(Time.ns 200) (vint (alloc_fd p o)))
  | "dup2" -> (
    match file_of_fd (int_arg 0) with
    | None -> fail p th E.EBADF
    | Some o ->
      let newfd = int_arg 1 in
      if newfd <> int_arg 0 then begin
        release_fd p newfd;
        o.refs <- o.refs + 1;
        Hashtbl.replace p.fds newfd o;
        p.next_fd <- max p.next_fd (newfd + 1)
      end;
      finish p th ~cost:(Time.ns 220) (vint newfd))
  | "truncate" -> (
    match Vfs.find_file kern.K.fs (abspath p (str_arg 0)) with
    | f ->
      Vfs.truncate f (int_arg 1);
      finish p th ~cost:(Time.ns 600) (vint 0)
    | exception Vfs.Error e -> fail p th (E.of_string e))
  | "fsync" -> finish p th ~cost:(Time.us 2.0) (vint 0)
  | "fstat" -> (
    match file_of_fd (int_arg 0) with
    | Some { okind = Kfile path; _ } -> (
      match Vfs.stat kern.K.fs path with
      | st -> finish p th (Ast.Vpair (vint st.Vfs.st_size, vint (if st.Vfs.st_is_dir then 1 else 0)))
      | exception Vfs.Error e -> fail p th (E.of_string e))
    | Some _ -> finish p th (Ast.Vpair (vint 0, vint 0))
    | None -> fail p th E.EBADF)
  | "rmdir" -> (
    match Vfs.unlink kern.K.fs (abspath p (str_arg 0)) with
    | () -> finish p th ~cost:Cost.host_open (vint 0)
    | exception Vfs.Error e -> fail p th (E.of_string e))
  | "umask" ->
    let old = p.umask in
    p.umask <- int_arg 0 land 0o777;
    finish p th (vint old)
  | "sync" -> finish p th ~cost:(Time.us 6.0) (vint 0)
  | "getrusage" ->
    finish p th
      (Ast.Vpair
         ( vint (max p.pico.K.peak_rss (Memory.rss p.pico.K.aspace)),
           vint (K.now kern) ))
  | "writev" ->
    let parts = List.map Ast.as_str (Ast.as_list (a 1)) in
    dispatch p th "write" [ a 0; vstr (String.concat "" parts) ]
  | "sendfile" -> (
    match (file_of_fd (int_arg 0), file_of_fd (int_arg 1)) with
    | Some ({ okind = Kfile inpath; _ } as ino), Some out_o -> (
      match Vfs.find_file kern.K.fs inpath with
      | f -> (
        let data = Vfs.read_file f ~off:ino.pos ~len:(int_arg 2) in
        ino.pos <- ino.pos + String.length data;
        match out_o.okind with
        | Kconsole ->
          Buffer.add_string p.console data;
          (match p.on_console with Some fn -> fn data | None -> ());
          finish p th (vint (String.length data))
        | Kfile outpath -> (
          match Vfs.find_file kern.K.fs outpath with
          | g ->
            Vfs.write_file g ~off:out_o.pos data;
            out_o.pos <- out_o.pos + String.length data;
            finish p th
              ~cost:(Time.add Cost.host_write_base (Cost.copy_cost (String.length data)))
              (vint (String.length data))
          | exception Vfs.Error e -> fail p th (E.of_string e))
        | Kstream _ -> (
          match out_o.handle with
          | Some { K.obj = K.Hstream ep; _ } -> (
            match K.stream_send kern ep data with
            | () -> finish p th (vint (String.length data))
            | exception K.Denied _ -> fail p th E.EPIPE)
          | _ -> fail p th E.EBADF)
        | _ -> fail p th E.EBADF)
      | exception Vfs.Error e -> fail p th (E.of_string e))
    | _ -> fail p th E.EBADF)
  | "alarm" ->
    let secs = int_arg 0 in
    p.alarm_seq <- p.alarm_seq + 1;
    let seq = p.alarm_seq in
    if secs > 0 then
      K.after kern (Time.s (float_of_int secs)) (fun () ->
          if (not p.exited) && p.alarm_seq = seq then ignore (post_signal p Signal.sigalrm));
    finish p th ~cost:(Time.ns 150) (vint 0)
  | "pipe" ->
    let a_ep, b_ep = Stream.pipe ~owner_a:p.pico.K.pid ~owner_b:p.pico.K.pid in
    let rfd = alloc_fd p (new_ofile ~handle:(K.fresh_handle kern (K.Hstream a_ep)) (Kstream { sock = false })) in
    let wfd = alloc_fd p (new_ofile ~handle:(K.fresh_handle kern (K.Hstream b_ep)) (Kstream { sock = false })) in
    finish p th ~cost:(Time.us 1.3) (Ast.Vpair (vint rfd, vint wfd))
  (* {2 Network} *)
  | "listen_tcp" -> (
    match K.net_listen kern p.pico ~port:(int_arg 0) with
    | srv ->
      finish p th ~cost:(Time.add (Time.us 1.5) (net_cost ctx))
        (vint (alloc_fd p (new_ofile ~handle:(K.fresh_handle kern (K.Hserver srv)) (Klisten (int_arg 0)))))
    | exception K.Denied e -> fail p th (E.of_string e))
  | "accept" -> (
    match file_of_fd (int_arg 0) with
    | Some { handle = Some { K.obj = K.Hserver srv; _ }; _ } ->
      K.stream_accept kern srv (fun ep ->
          finish p th
            ~cost:(Time.add (Time.us 1.2) (net_cost ctx))
            (vint (alloc_fd p (new_ofile ~handle:(K.fresh_handle kern (K.Hstream ep)) (Kstream { sock = true })))))
    | _ -> fail p th E.ENOTSOCK)
  | "accept_try" -> (
    (* non-blocking accept: -1 when the backlog is empty, so an event
       loop never sleeps outside its poll call *)
    match file_of_fd (int_arg 0) with
    | Some { handle = Some { K.obj = K.Hserver srv; _ }; _ } ->
      if srv.K.backlog = [] then finish p th ~cost:(Time.ns 300) (vint (-1))
      else
        K.stream_accept kern srv (fun ep ->
            finish p th
              ~cost:(Time.add (Time.us 1.2) (net_cost ctx))
              (vint
                 (alloc_fd p
                    (new_ofile ~handle:(K.fresh_handle kern (K.Hstream ep)) (Kstream { sock = true })))))
    | _ -> fail p th E.ENOTSOCK)
  | "connect_tcp" ->
    K.net_connect kern p.pico ~port:(int_arg 0)
      ~ok:(fun ep ->
        finish p th
          ~cost:(Time.add (Time.us 1.5) (net_cost ctx))
          (vint (alloc_fd p (new_ofile ~handle:(K.fresh_handle kern (K.Hstream ep)) (Kstream { sock = true })))))
      ~err:(fun e -> fail p th (E.of_string e))
  | "shutdown" -> (
    match file_of_fd (int_arg 0) with
    | Some { handle = Some { K.obj = K.Hstream ep; _ }; _ } ->
      K.close_endpoint_ordered kern ep;
      finish p th (vint 0)
    | _ -> fail p th E.EBADF)
  | "select" -> do_select p th (Ast.as_list (a 0))
  (* {2 epoll} *)
  | "epoll_create" ->
    finish p th ~cost:(Time.ns 150) (vint (alloc_fd p (new_ofile (Kepoll { interest = [] }))))
  | "epoll_ctl" -> (
    match file_of_fd (int_arg 0) with
    | Some { okind = Kepoll e; _ } -> (
      let fd = int_arg 2 in
      match str_arg 1 with
      | "add" ->
        if file_of_fd fd = None then fail p th E.EBADF
        else begin
          if not (List.mem fd e.interest) then e.interest <- e.interest @ [ fd ];
          finish p th ~cost:(Time.ns 150) (vint 0)
        end
      | "del" ->
        e.interest <- List.filter (fun f -> f <> fd) e.interest;
        finish p th ~cost:(Time.ns 150) (vint 0)
      | _ -> fail p th E.EINVAL)
    | Some _ -> fail p th E.EINVAL
    | None -> fail p th E.EBADF)
  | "epoll_wait" -> (
    match file_of_fd (int_arg 0) with
    | Some { okind = Kepoll e; _ } -> do_epoll_wait p th e
    | Some _ -> fail p th E.EINVAL
    | None -> fail p th E.EBADF)
  (* {2 Signals} *)
  | "sigaction" ->
    Hashtbl.replace p.sigactions (int_arg 0) (str_arg 1);
    finish p th ~cost:Cost.native_sig_install (vint 0)
  | "sigprocmask" -> (
    let signum = int_arg 1 in
    match str_arg 0 with
    | "block" ->
      if not (List.mem signum p.sig_blocked) then p.sig_blocked <- signum :: p.sig_blocked;
      finish p th (vint 0)
    | "unblock" ->
      p.sig_blocked <- List.filter (fun s -> s <> signum) p.sig_blocked;
      finish p th (vint 0)
    | _ -> fail p th E.EINVAL)
  | "kill" ->
    let target = int_arg 0 and signum = int_arg 1 in
    if target = p.pid then begin
      ignore (post_signal p signum);
      finish p th ~cost:Cost.native_self_signal (vint 0)
    end
    else if target < 0 then begin
      let pgid = -target in
      Hashtbl.iter (fun _ q -> if q.pgid = pgid then ignore (post_signal q signum)) ctx.procs;
      finish p th ~cost:(Time.us 1.5) (vint 0)
    end
    else begin
      match Hashtbl.find_opt ctx.procs target with
      | Some q ->
        ignore (post_signal q signum);
        finish p th ~cost:(Time.us 1.1) (vint 0)
      | None -> fail p th E.ESRCH
    end
  | "pause" -> p.pause_waiters <- th :: p.pause_waiters
  (* {2 Process lifecycle} *)
  | "fork" -> do_fork p th
  | "execve" -> do_exec p th (abspath p (str_arg 0)) (List.map Ast.as_str (Ast.as_list (a 1)))
  | "exit" -> do_exit p (int_arg 0)
  | "wait" -> do_wait p th None
  | "waitpid" ->
    let q = int_arg 0 in
    do_wait p th (if q = -1 then None else Some q)
  (* {2 System V IPC in kernel memory} *)
  | "msgget" -> (
    let key = int_arg 0 and create = int_arg 1 <> 0 in
    match Hashtbl.find_opt ctx.key_to_q key with
    | Some id -> finish p th ~cost:(Time.us 32.4) (vint id)
    | None ->
      if not create then fail p th E.ENOENT
      else begin
        let id = ctx.next_rid in
        ctx.next_rid <- id + 1;
        Hashtbl.replace ctx.key_to_q key id;
        Hashtbl.replace ctx.queues id { kq_id = id; kq_msgs = []; kq_waiters = [] };
        finish p th ~cost:(Time.us 33.2) (vint id)
      end)
  | "msgsnd" -> (
    match Hashtbl.find_opt ctx.queues (int_arg 0) with
    | None -> fail p th E.EIDRM
    | Some q -> (
      let data = str_arg 1 in
      match q.kq_waiters with
      | w :: rest ->
        q.kq_waiters <- rest;
        w data;
        finish p th ~cost:(Time.us 1.4) (vint 0)
      | [] ->
        q.kq_msgs <- q.kq_msgs @ [ data ];
        finish p th ~cost:(Time.us 1.4) (vint 0)))
  | "msgrcv" -> (
    match Hashtbl.find_opt ctx.queues (int_arg 0) with
    | None -> fail p th E.EIDRM
    | Some q -> (
      match q.kq_msgs with
      | m :: rest ->
        q.kq_msgs <- rest;
        finish p th ~cost:(Time.us 1.4) (vstr m)
      | [] -> q.kq_waiters <- q.kq_waiters @ [ (fun m -> finish p th ~cost:(Time.us 1.4) (vstr m)) ]))
  | "msgctl_rmid" -> (
    let id = int_arg 0 in
    match Hashtbl.find_opt ctx.queues id with
    | None -> fail p th E.EIDRM
    | Some q ->
      Hashtbl.remove ctx.queues id;
      Hashtbl.iter
        (fun key qid -> if qid = id then Hashtbl.remove ctx.key_to_q key)
        (Hashtbl.copy ctx.key_to_q);
      List.iter (fun w -> w "") q.kq_waiters;
      finish p th ~cost:(Time.us 2.0) (vint 0))
  | "semget" -> (
    let key = int_arg 0 and init = int_arg 1 in
    match Hashtbl.find_opt ctx.key_to_sem key with
    | Some id -> finish p th ~cost:(Time.us 2.0) (vint id)
    | None ->
      let id = ctx.next_rid in
      ctx.next_rid <- id + 1;
      Hashtbl.replace ctx.key_to_sem key id;
      Hashtbl.replace ctx.sems id { ks_id = id; ks_count = init; ks_waiters = [] };
      finish p th ~cost:(Time.us 3.0) (vint id))
  | "semop" -> (
    match Hashtbl.find_opt ctx.sems (int_arg 0) with
    | None -> fail p th E.EIDRM
    | Some s ->
      let delta = int_arg 1 in
      if delta >= 0 then begin
        s.ks_count <- s.ks_count + delta;
        let rec wake () =
          if s.ks_count > 0 then begin
            match s.ks_waiters with
            | [] -> ()
            | w :: rest ->
              s.ks_waiters <- rest;
              s.ks_count <- s.ks_count - 1;
              w ();
              wake ()
          end
        in
        wake ();
        finish p th ~cost:(Time.us 1.0) (vint 0)
      end
      else if s.ks_count > 0 then begin
        s.ks_count <- s.ks_count - 1;
        finish p th ~cost:(Time.us 1.0) (vint 0)
      end
      else s.ks_waiters <- s.ks_waiters @ [ (fun () -> finish p th ~cost:(Time.us 1.0) (vint 0)) ])
  | "semop_try" -> (
    (* semop with IPC_NOWAIT: 0 on success, -1 when the acquire would
       block (futex-backed on a native kernel, so it never sleeps) *)
    match Hashtbl.find_opt ctx.sems (int_arg 0) with
    | None -> fail p th E.EIDRM
    | Some s ->
      let delta = int_arg 1 in
      if delta >= 0 then begin
        s.ks_count <- s.ks_count + delta;
        let rec wake () =
          if s.ks_count > 0 then begin
            match s.ks_waiters with
            | [] -> ()
            | w :: rest ->
              s.ks_waiters <- rest;
              s.ks_count <- s.ks_count - 1;
              w ();
              wake ()
          end
        in
        wake ();
        finish p th ~cost:(Time.us 1.0) (vint 0)
      end
      else if s.ks_count > 0 then begin
        s.ks_count <- s.ks_count - 1;
        finish p th ~cost:(Time.us 1.0) (vint 0)
      end
      else finish p th ~cost:(Time.us 1.0) (vint (-1)))
  (* {2 Memory} *)
  | "mmap" -> (
    let bytes = int_arg 0 in
    let npages = Memory.pages_of_bytes bytes in
    let base = p.next_mmap in
    match Memory.map p.pico.K.aspace ~base ~npages ~perm:Memory.rw ~kind:Memory.Mmap with
    | _ ->
      p.next_mmap <- base + (npages * Memory.page_size) + Memory.page_size;
      finish p th ~cost:(Time.ns 300) (vint base)
    | exception Invalid_argument _ -> fail p th E.ENOMEM)
  | "munmap" -> (
    match Memory.unmap p.pico.K.aspace ~base:(int_arg 0) with
    | () -> finish p th ~cost:(Time.ns 300) (vint 0)
    | exception Memory.Fault _ -> fail p th E.EINVAL)
  | "brk" ->
    let target = int_arg 0 in
    if target <= p.heap_mapped then begin
      p.brk <- max p.brk target;
      finish p th ~cost:(Time.ns 90) (vint (K.heap_base + p.brk))
    end
    else begin
      let grow = target - p.heap_mapped in
      let npages = Memory.pages_of_bytes grow in
      (match Memory.map p.pico.K.aspace ~base:(K.heap_base + p.heap_mapped) ~npages ~perm:Memory.rw ~kind:Memory.Heap with
      | _ ->
        p.heap_mapped <- p.heap_mapped + (npages * Memory.page_size);
        p.brk <- target;
        finish p th ~cost:(Time.ns 200) (vint (K.heap_base + p.brk))
      | exception Invalid_argument _ -> fail p th E.ENOMEM)
    end
  | "poke" | "peek" -> (
    match Memcall.call p.pico name args with
    | Ok (v, cost) -> finish p th ~cost v
    | Error e -> fail p th e)
  (* {2 Threads} *)
  | "clone" -> (
    let fname = str_arg 0 in
    match th.K.machine with
    | None -> fail p th E.EINVAL
    | Some m ->
      if not (Interp.has_func m fname) then fail p th E.EINVAL
      else begin
        let gtid = p.pid + p.next_tid_seq in
        p.next_tid_seq <- p.next_tid_seq + 1;
        let prog = Interp.program_of_state m in
        let tm = Interp.start { prog with Ast.main = Ast.Call (fname, [ Ast.Const (a 1) ]) } ~argv:[] in
        let host_th = K.spawn_thread kern p.pico tm ~service:(make_service p) in
        Hashtbl.replace p.threads gtid host_th;
        Hashtbl.replace p.thread_guest_tid host_th.K.tid gtid;
        finish p th ~cost:(Time.us 9.0) (vint gtid)
      end)
  | "join" ->
    let gtid = int_arg 0 in
    if List.mem gtid p.done_tids then finish p th (vint 0)
    else if Hashtbl.mem p.threads gtid then p.join_waiters <- (gtid, th) :: p.join_waiters
    else fail p th E.ESRCH
  | "sched_yield" -> finish p th ~cost:Cost.native_sched_yield (vint 0)
  (* {2 Time and misc} *)
  | "nanosleep" ->
    let ns = int_arg 0 in
    if ns < 0 then fail p th E.EINVAL
    else K.after kern (Time.ns ns) (fun () -> finish p th (vint 0))
  | "gettimeofday" | "time" | "clock_gettime" ->
    finish p th ~cost:Cost.host_time_query (vint (K.now kern))
  | "rand" -> finish p th (vint (Rng.int kern.K.rng (max 1 (int_arg 0))))
  | "ring" -> do_ring p th (Ast.as_list (a 0))
  | "sandbox_create" ->
    (* stock Linux has no equivalent; the nearest is ENOSYS *)
    fail p th E.ENOSYS
  | _ -> fail p th E.ENOSYS

and do_open p th path mode =
  let kern = p.ctx.kernel in
  if path = "/dev/zero" then
    finish p th (vint (alloc_fd p (new_ofile Kzero)))
  else if path = "/dev/null" then finish p th (vint (alloc_fd p (new_ofile Knull)))
  else if String.length path >= 6 && String.sub path 0 6 = "/proc/" then begin
    (* native /proc: the kernel renders it directly — including for
       OTHER processes, which is exactly the Memento-style exposure
       Graphene avoids (§6.6) *)
    match String.split_on_char '/' path with
    | [ ""; "proc"; pid_s; field ] -> (
      match int_of_string_opt pid_s with
      | None -> fail p th E.ENOENT
      | Some q_pid -> (
        match Hashtbl.find_opt p.ctx.procs q_pid with
        | None -> fail p th E.ESRCH
        | Some q ->
          let content =
            match field with
            | "status" ->
              Printf.sprintf "Name:\t%s\nPid:\t%d\nPPid:\t%d\nState:\tR (running)\n"
                (Filename.basename q.exe) q.pid q.ppid
            | "cmdline" -> q.exe
            | _ -> ""
          in
          if content = "" then fail p th E.ENOENT
          else finish p th ~cost:(Time.us 1.2) (vint (alloc_fd p (new_ofile (Kproc content))))))
    | _ -> fail p th E.ENOENT
  end
  else begin
    let create = mode = "w" || mode = "rw" || mode = "creat" in
    let cost =
      Time.add Cost.host_open (Time.scale Cost.path_component (float_of_int (Vfs.depth path)))
    in
    match
      if create then begin
        Vfs.mkdir_p kern.K.fs (Filename.dirname path);
        Vfs.create_file kern.K.fs path
      end
      else Vfs.find_file kern.K.fs path
    with
    | f ->
      let o = new_ofile (Kfile path) in
      if mode = "a" then o.pos <- Vfs.file_size f;
      finish p th ~cost (vint (alloc_fd p o))
    | exception Vfs.Error e -> fail p th (E.of_string e)
  end

and do_read p th fd n =
  let kern = p.ctx.kernel in
  match Hashtbl.find_opt p.fds fd with
  | None -> fail p th E.EBADF
  | Some o -> (
    match o.okind with
    | Knull | Kconsole -> finish p th (vstr "")
    | Kzero -> finish p th ~cost:Cost.host_read_base (vstr (String.make (max 0 n) '\000'))
    | Kproc content ->
      let avail = String.length content - o.pos in
      let take = min n (max 0 avail) in
      let s = String.sub content o.pos take in
      o.pos <- o.pos + take;
      finish p th ~cost:(Time.us 0.4) (vstr s)
    | Kfile path -> (
      match Vfs.find_file kern.K.fs path with
      | f ->
        let data = Vfs.read_file f ~off:o.pos ~len:n in
        o.pos <- o.pos + String.length data;
        finish p th ~cost:(Time.add Cost.host_read_base (Cost.copy_cost n)) (vstr data)
      | exception Vfs.Error e -> fail p th (E.of_string e))
    | Kstream { sock } -> (
      match o.handle with
      | Some { K.obj = K.Hstream ep; _ } ->
        K.stream_recv kern ep ~max:n (fun data ->
            let cost = Time.add Cost.host_read_base (if sock then net_cost p.ctx else Time.zero) in
            finish p th ~cost (vstr data))
      | _ -> fail p th E.EBADF)
    | Klisten _ | Kepoll _ -> fail p th E.EINVAL)

and do_write p th fd data =
  let kern = p.ctx.kernel in
  match Hashtbl.find_opt p.fds fd with
  | None -> fail p th E.EBADF
  | Some o -> (
    match o.okind with
    | Knull -> finish p th ~cost:Cost.host_write_base (vint (String.length data))
    | Kzero -> fail p th E.EACCES
    | Kconsole ->
      Buffer.add_string p.console data;
      (match p.on_console with Some f -> f data | None -> ());
      finish p th ~cost:(Time.ns 150) (vint (String.length data))
    | Kproc _ -> fail p th E.EACCES
    | Kfile path -> (
      match Vfs.find_file kern.K.fs path with
      | f ->
        Vfs.write_file f ~off:o.pos data;
        o.pos <- o.pos + String.length data;
        finish p th
          ~cost:(Time.add Cost.host_write_base (Cost.copy_cost (String.length data)))
          (vint (String.length data))
      | exception Vfs.Error e -> fail p th (E.of_string e))
    | Kstream { sock } -> (
      match o.handle with
      | Some { K.obj = K.Hstream ep; _ } -> (
        match K.stream_send kern ep data with
        | () ->
          let cost =
            Time.add
              (Time.add Cost.host_write_base (Cost.copy_cost (String.length data)))
              (if sock then net_cost p.ctx else Time.zero)
          in
          finish p th ~cost (vint (String.length data))
        | exception K.Denied _ ->
          ignore (post_signal p Signal.sigpipe);
          fail p th E.EPIPE)
      | _ -> fail p th E.EBADF)
    | Klisten _ | Kepoll _ -> fail p th E.EINVAL)

(* Guest-ABI parity with libLinux's submission ring: the same batch
   syscall with identical per-op results. A stock kernel services it
   as a plain sequence of reads and writes (the readv/writev path):
   one syscall entry for the batch, per-op work costs. A stream read
   that would block completes -EAGAIN — same no-park semantics as the
   ring drain — and an individual failure never aborts the batch. *)
and do_ring p th entries =
  let kern = p.ctx.kernel in
  let rec step todo acc cost =
    match todo with
    | [] -> finish p th ~cost (Ast.Vlist (List.rev acc))
    | v :: rest -> (
      let imm r c = step rest (r :: acc) (Time.add cost c) in
      match v with
      | Ast.Vpair (Ast.Vstr "read", Ast.Vpair (Ast.Vint fd, Ast.Vint n)) -> (
        match Hashtbl.find_opt p.fds fd with
        | None -> imm (err E.EBADF) Time.zero
        | Some o -> (
          match o.okind with
          | Kfile path -> (
            match Vfs.find_file kern.K.fs path with
            | f ->
              let data = Vfs.read_file f ~off:o.pos ~len:n in
              o.pos <- o.pos + String.length data;
              imm (vstr data) (Time.add Cost.host_read_base (Cost.copy_cost n))
            | exception Vfs.Error e -> imm (err (E.of_string e)) Time.zero)
          | Kstream { sock } -> (
            match o.handle with
            | Some { K.obj = K.Hstream ep; _ } ->
              if Stream.available ep > 0 || Stream.at_eof ep then
                K.stream_recv kern ep ~max:n (fun data ->
                    step rest (vstr data :: acc)
                      (Time.add cost
                         (Time.add Cost.host_read_base
                            (if sock then net_cost p.ctx else Time.zero))))
              else imm (err E.EAGAIN) Cost.host_read_base
            | _ -> imm (err E.EBADF) Time.zero)
          | _ -> imm (err E.EINVAL) Time.zero))
      | Ast.Vpair (Ast.Vstr "write", Ast.Vpair (Ast.Vint fd, Ast.Vstr data)) -> (
        match Hashtbl.find_opt p.fds fd with
        | None -> imm (err E.EBADF) Time.zero
        | Some o -> (
          match o.okind with
          | Kconsole ->
            Buffer.add_string p.console data;
            (match p.on_console with Some f -> f data | None -> ());
            imm (vint (String.length data)) (Time.ns 150)
          | Kfile path -> (
            match Vfs.find_file kern.K.fs path with
            | f ->
              Vfs.write_file f ~off:o.pos data;
              o.pos <- o.pos + String.length data;
              imm
                (vint (String.length data))
                (Time.add Cost.host_write_base (Cost.copy_cost (String.length data)))
            | exception Vfs.Error e -> imm (err (E.of_string e)) Time.zero)
          | Kstream { sock } -> (
            match o.handle with
            | Some { K.obj = K.Hstream ep; _ } -> (
              match K.stream_send kern ep data with
              | () ->
                imm
                  (vint (String.length data))
                  (Time.add
                     (Time.add Cost.host_write_base (Cost.copy_cost (String.length data)))
                     (if sock then net_cost p.ctx else Time.zero))
              | exception K.Denied _ -> imm (err E.EPIPE) Time.zero)
            | _ -> imm (err E.EBADF) Time.zero)
          | _ -> imm (err E.EINVAL) Time.zero))
      | _ -> imm (err E.EINVAL) Time.zero)
  in
  step entries [] Time.zero

and do_select p th fd_values =
  let kern = p.ctx.kernel in
  let fds = List.map Ast.as_int fd_values in
  let eps =
    List.filter_map
      (fun fd ->
        match Hashtbl.find_opt p.fds fd with
        | Some { handle = Some { K.obj = K.Hstream ep; _ }; _ } -> Some (fd, ep)
        | _ -> None)
      fds
  in
  if eps = [] then fail p th E.EBADF
  else
    K.after kern Cost.select_base (fun () ->
        let completed = ref false in
        List.iter
          (fun (fd, ep) ->
            let rec arm () =
              if not !completed then begin
                if Stream.available ep > 0 || Stream.at_eof ep then begin
                  completed := true;
                  finish p th (vint fd)
                end
                else Stream.on_activity ep (fun () -> arm ())
              end
            in
            arm ())
          eps)

and do_epoll_wait p th e =
  let kern = p.ctx.kernel in
  if e.interest = [] then fail p th E.EINVAL
  else begin
    let ready_fd fd =
      match Hashtbl.find_opt p.fds fd with
      | Some { handle = Some { K.obj = K.Hstream ep; _ }; _ } ->
        Stream.available ep > 0 || Stream.at_eof ep
      | Some { handle = Some { K.obj = K.Hserver srv; _ }; _ } ->
        srv.K.backlog <> [] || srv.K.srv_closed
      | _ -> false
    in
    let answer ready =
      finish p th ~cost:(Time.us 0.6) (Ast.Vlist (List.map vint ready))
    in
    match List.filter ready_fd e.interest with
    | _ :: _ as ready -> answer ready
    | [] ->
      let completed = ref false in
      let wake () =
        if not !completed then begin
          completed := true;
          answer (List.filter ready_fd e.interest)
        end
      in
      K.after kern Cost.select_base (fun () ->
          if !completed then ()
          else
            List.iter
              (fun fd ->
                match Hashtbl.find_opt p.fds fd with
                | Some { handle = Some { K.obj = K.Hstream ep; _ }; _ } ->
                  let rec arm () =
                    if not !completed then
                      if Stream.available ep > 0 || Stream.at_eof ep then wake ()
                      else Stream.on_activity ep (fun () -> arm ())
                  in
                  arm ()
                | Some { handle = Some { K.obj = K.Hserver srv; _ }; _ } ->
                  if srv.K.backlog <> [] then wake ()
                  else
                    (* a readiness probe, not a consumer: pass the
                       connection to the next waiter in line or stash
                       it for a later accept — never strand it in the
                       backlog behind queued accepts *)
                    srv.K.accept_waiters <-
                      srv.K.accept_waiters
                      @ [ (fun ep ->
                            (match srv.K.accept_waiters with
                            | w :: rest ->
                              srv.K.accept_waiters <- rest;
                              w ep
                            | [] -> srv.K.backlog <- srv.K.backlog @ [ ep ]);
                            wake ()) ]
                | _ -> ())
              e.interest)
  end

and do_wait p th pid_filter =
  let find_zombie () =
    let matches c = match pid_filter with None -> true | Some q -> c.c_pid = q in
    Hashtbl.fold
      (fun _ c acc ->
        match (acc, c.c_status) with
        | None, `Zombie code when matches c -> Some (c.c_pid, code)
        | _ -> acc)
      p.children None
  in
  match find_zombie () with
  | Some (cpid, code) ->
    Hashtbl.remove p.children cpid;
    finish p th ~cost:(Time.us 0.8) (Ast.Vpair (vint cpid, vint code))
  | None ->
    if Hashtbl.length p.children = 0 then fail p th E.ECHILD
    else
      p.wait_waiters <-
        p.wait_waiters
        @ [ (pid_filter, fun (cpid, code) -> finish p th (Ast.Vpair (vint cpid, vint code))) ]

(* Native copy-on-write fork: one kernel operation — duplicate the mm
   (COW), the fd table (refcounted) and the registers (the machine). *)
and do_fork p th =
  let ctx = p.ctx in
  let kern = ctx.kernel in
  match th.K.machine with
  | None -> fail p th E.EINVAL
  | Some m ->
    ctx.next_pid <- ctx.next_pid + 1;
    let child_pid = ctx.next_pid in
    let child_pico = K.spawn kern ~with_pal:false ~sandbox:p.pico.K.sandbox ~exe:p.exe () in
    (match ctx.vm with Some v -> child_pico.K.cpu_tax <- v.cpu_tax | None -> ());
    ignore (Memory.share_all ~src:p.pico.K.aspace ~dst:child_pico.K.aspace);
    let child = make_proc ctx ~pid:child_pid ~ppid:p.pid ~pgid:p.pgid ~exe:p.exe ~pico:child_pico in
    child.cwd <- p.cwd;
    child.on_console <- p.on_console;
    child.brk <- p.brk;
    child.heap_mapped <- p.heap_mapped;
    child.next_mmap <- p.next_mmap;
    Hashtbl.iter (fun s h -> Hashtbl.replace child.sigactions s h) p.sigactions;
    child.sig_blocked <- p.sig_blocked;
    Hashtbl.iter
      (fun fd o ->
        o.refs <- o.refs + 1;
        Hashtbl.replace child.fds fd o)
      p.fds;
    child.next_fd <- p.next_fd;
    Hashtbl.replace ctx.procs child_pid child;
    Hashtbl.replace p.children child_pid { c_pid = child_pid; c_status = `Running };
    let child_machine = Interp.resume m (vint 0) in
    K.after kern Cost.native_fork (fun () ->
        if not child.exited then begin
          child.started_at <- Some (K.now kern);
          let cth = K.spawn_thread kern child_pico child_machine ~service:(make_service child) in
          child.main_thread <- Some cth;
          Hashtbl.replace child.thread_guest_tid cth.K.tid child.pid
        end;
        finish p th (vint child_pid))

and do_exec p th path argv =
  let kern = p.ctx.kernel in
  match Vfs.read_string kern.K.fs path with
  | exception Vfs.Error e -> fail p th (E.of_string e)
  | data -> (
    match Loader.decode data with
    | Error e -> fail p th e
    | Ok program ->
      Hashtbl.reset p.sigactions;
      p.exe <- path;
      let m = Interp.start program ~argv in
      K.set_machine kern th m ~cost:Cost.native_exec)

and make_service p =
  { K.on_syscall = (fun th name args -> if p.exited then () else dispatch p th name args);
    on_finish =
      (fun th v ->
        match p.main_thread with
        | Some main when main == th -> do_exit p (match v with Ast.Vint n -> n land 255 | _ -> 0)
        | _ -> (
          match Hashtbl.find_opt p.thread_guest_tid th.K.tid with
          | Some gtid ->
            Hashtbl.remove p.threads gtid;
            p.done_tids <- gtid :: p.done_tids;
            let ready, rest = List.partition (fun (g, _) -> g = gtid) p.join_waiters in
            p.join_waiters <- rest;
            List.iter (fun (_, waiter) -> finish p waiter (vint 0)) ready
          | None -> ());
          K.finish_thread p.ctx.kernel th);
    on_fault = (fun _ _ -> do_exit p (128 + Signal.sigsegv)) }

(* Start a fresh process: fork+exec from the "launcher" (208 us,
   Table 4); under KVM the one-time boot has already been charged. *)
let boot ?console_hook ctx ~exe ~argv () =
  let kern = ctx.kernel in
  ctx.next_pid <- ctx.next_pid + 1;
  let pid = ctx.next_pid in
  let sandbox = K.fresh_sandbox kern in
  let pico = K.spawn kern ~with_pal:false ~sandbox ~exe () in
  (match ctx.vm with Some v -> pico.K.cpu_tax <- v.cpu_tax | None -> ());
  let p = make_proc ctx ~pid ~ppid:0 ~pgid:pid ~exe ~pico in
  p.on_console <- console_hook;
  init_std_fds p;
  Hashtbl.replace ctx.procs pid p;
  let start_delay =
    match ctx.booted_at with
    | Some _ -> Cost.native_process_start
    | None -> Time.add (match ctx.vm with Some v -> v.boot | None -> Time.zero) Cost.native_process_start
  in
  K.after kern start_delay (fun () ->
      match Vfs.read_string kern.K.fs exe with
      | exception Vfs.Error _ -> do_exit p 127
      | data -> (
        match Loader.decode data with
        | Error _ -> do_exit p 127
        | Ok program ->
          let bin_bytes = try (Vfs.stat kern.K.fs exe).Vfs.st_size with Vfs.Error _ -> 0 in
          map_images p ~app_bytes:(max app_image_bytes bin_bytes);
          let machine = Interp.start program ~argv in
          p.started_at <- Some (K.now kern);
          let th = K.spawn_thread kern pico machine ~service:(make_service p) in
          p.main_thread <- Some th;
          Hashtbl.replace p.thread_guest_tid th.K.tid p.pid));
  p
