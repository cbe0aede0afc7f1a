(** The durable-IO effect layer: every byte the analysis persists —
    solver snapshots, cache entries, serve and batch journals, trace
    exports, fuzz corpus files — goes through this module and nothing
    else.  Centralizing the syscalls buys three things:

    - {b correctness under hostile kernels}: every operation retries
      [EINTR] transparently and backs off (bounded, exponential) on
      transient [EAGAIN]/[EWOULDBLOCK]; writes are chunked and continue
      after short writes; atomic writes go tmp-file + [rename] with the
      temp file unlinked on {e every} failure path, so no error can leak
      a stray [.tmp.*] or a torn destination;
    - {b configurable durability}: a process-wide level chosen at the
      CLI ([--durability flush|fsync]) decides whether an operation
      merely hands bytes to the kernel ([flush], the default —
      byte-identical behavior to every release before this layer
      existed) or also [fsync]s the file and its parent directory before
      reporting success ([fsync]);
    - {b deterministic fault injection}: a seeded {!plan} can make any
      operation fail with EIO/ENOSPC, suffer an extra EINTR or a short
      write (which the retry machinery must absorb), tear a rename, or
      die outright at operation [k] — the crash-point matrix.  The
      decision for operation [i] is a pure function of [(seed, i)], so
      a failing seed replays exactly.

    Everything here is total: no exception escapes a [(_, error) result]
    operation (injected crashes excepted — that is their point). *)

(* ----------------------------- durability ----------------------------- *)

type durability =
  | D_flush
      (** every operation completes its [write(2)]s before reporting
          success; no [fsync].  The default, matching the pre-layer
          behavior of [open_out]/[close_out] + [Sys.rename]. *)
  | D_fsync
      (** additionally [fsync] file contents before the publishing
          [rename], [fsync] the parent directory after it, and [fsync]
          after every journal append *)

val set_durability : durability -> unit
(** Process-wide; set once at CLI startup.  Deliberately {e not} part of
    {!Config.t}: durability changes when bytes are safe, never what they
    are. *)

val durability : unit -> durability

(* ------------------------------- errors ------------------------------- *)

type error = {
  io_op : string;  (** the failing operation, e.g. ["write"], ["rename"] *)
  io_path : string;
  io_message : string;  (** the rendered errno or [Sys_error] message *)
}

val error_message : error -> string
(** ["<path>: <op>: <message>"]. *)

(* --------------------------- fault injection -------------------------- *)

type fault =
  | F_eio  (** the operation fails with [EIO] *)
  | F_enospc  (** a write-side operation fails with [ENOSPC] *)
  | F_eintr
      (** the operation fails once with [EINTR], then succeeds — must be
          invisible to callers (the retry loop absorbs it) *)
  | F_short_write
      (** one [write(2)] transfers only half its bytes — must be
          invisible to callers (the chunk loop continues) *)
  | F_torn_rename
      (** the source file is truncated to half before the rename lands:
          the torn-page crash a missing fsync exposes.  Readers must
          detect the damage (CRC) and fall back cleanly. *)

type plan
(** A deterministic schedule of faults over the operation sequence. *)

val plan :
  ?rate:int ->
  ?faults:fault list ->
  ?crash_at:int ->
  ?crash_exit:bool ->
  seed:int ->
  unit ->
  plan
(** [plan ~seed ()] builds a fault plan.  [rate] (default [0] = never)
    injects a fault on roughly one in [rate] operations; which
    operations, and which [fault] from [faults] (default: all),
    is a pure function of [(seed, op_index)].  [crash_at] simulates
    process death {e before} operation [k] is attempted: with
    [crash_exit] (the default, for forked children) the process
    [_exit]s with code 137 — no [at_exit], no cleanup, the faithful
    [kill -9]; without it {!Crash_point} is raised instead, which
    unwinds exception-safely (temp files unlinked, descriptors closed)
    and so additionally exercises the cleanup paths. *)

exception Crash_point of int
(** Raised at the crash point when [crash_exit] is false. *)

val with_plan : plan -> (unit -> 'a) -> 'a
(** [with_plan plan f] runs [f] with [plan] installed: it governs the
    operations [f] performs (process-global), and is removed afterwards,
    also on exception. *)

val ops_performed : unit -> int
(** Operations ticked by the installed plan ([0] when none): the count
    to enumerate crash points over. *)

val injected : unit -> int
(** Faults injected by the installed plan so far. *)

val preview : plan -> n:int -> fault option list
(** The decisions the plan would take for operations [0 .. n-1], without
    performing anything — the determinism oracle ([preview] of two plans
    with the same seed are equal). *)

val fork_crashing : plan:plan -> (unit -> unit) -> unit
(** [fork_crashing ~plan f] runs [f] in a forked child with [plan]
    installed and waits for it.  The child [_exit]s 0 if [f] returns or
    raises, 137 if the plan's crash point fired — either way the parent
    returns normally and inspects the disk.  The building block of the
    crash-point matrix. *)

(* ------------------------------ statistics ---------------------------- *)

type stats = {
  writes : int;  (** atomic whole-file writes completed *)
  appends : int;  (** journal lines appended *)
  fsyncs : int;  (** [fsync(2)] calls issued (files and directories) *)
  renames : int;
  retries : int;  (** EINTR/EAGAIN retries absorbed *)
  faults : int;  (** faults injected (all plans since reset) *)
}

val stats : unit -> stats
val reset_stats : unit -> unit

(* ------------------------------ operations ---------------------------- *)

val read_file : string -> (string, error) result
(** Whole-file read (binary).  A missing file is an [error] whose
    [io_message] is the rendered [ENOENT] — callers that treat absence
    as a miss match on the result, not on an exception. *)

val temp_path : string -> pid:int -> string
(** [path ^ ".tmp.<pid>"]: the temp file {!write_file_atomic} writes in
    process [pid] before renaming it over [path].  A writer killed
    between the two leaves it behind. *)

val is_temp_name : string -> bool
(** Whether a file name has {!temp_path}'s shape ([<name>.tmp.<digits>]):
    what directory sweeps remove as a crashed writer's leftover. *)

val write_file_atomic : path:string -> string -> (unit, error) result
(** Write bytes to this process's {!temp_path}, honor the durability
    level ([D_fsync]: fsync file, then rename, then fsync the parent
    directory), and rename over [path].  On {e any} failure the temp
    file is closed and unlinked before the error is returned: no fault
    or {!Crash_point} can leak it (only a process killed outright can),
    and [path] is either its old content or the complete new content,
    never a mixture. *)

val rename : src:string -> dst:string -> (unit, error) result
val unlink : string -> (unit, error) result
(** [unlink] of a missing file is [Ok ()]. *)

val mkdir_p : string -> (unit, error) result

(* ------------------------------- appender ----------------------------- *)

(** An append-only line sink for journals.  Writes are raw [write(2)]
    on an [O_APPEND] descriptor (one line per call, so a crashed writer
    tears at most the final line); [D_fsync] syncs after every line. *)
type appender

val open_append : string -> (appender, error) result
(** Opens (creating, [0o644]) for appending; creates parent directories
    as needed. *)

val append_line : appender -> string -> (unit, error) result
(** Writes [line ^ "\n"] and makes it as durable as the level demands. *)

val close_append : appender -> unit
(** Close; errors are swallowed (idempotent). *)
