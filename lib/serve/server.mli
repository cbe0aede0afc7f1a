(** The serve daemon's state machine, transport-agnostic: request lines
    in, response lines out.  The process event loop (stdin/stdout or a
    Unix socket, signals, blocking reads) lives in the CLI; everything
    below is a pure library so the tests and the fuzz harness can drive
    whole sessions — including crash/recovery cycles — in process.

    {b Robustness contract.}  No exception crosses {!handle_line}: every
    failure is a structured {!Protocol.error} response.  Mutations are
    computed on candidates and committed only on success, so a deadline
    trip rolls the resident state back by construction.  Every response
    is appended to a journal (with the request digest and the resulting
    generation) before it is returned, and the resident state plus memo
    are snapshotted after every mutation: each solved state is written
    once, as a content-addressed blob under [DIR/blobs/], and an
    atomically replaced manifest ([DIR/serve.snap]) names the blobs in
    use — a [kill -9] at any point loses at most the in-flight request,
    and a restart with [resume:true] re-emits journaled responses byte
    for byte while re-executing post-snapshot mutations to catch the
    resident state up.  The state a commit replaces stays in memory
    (never on disk) until the next memo lookup, so a revert answers
    without decoding its blob; a resumed daemon thaws the blob instead
    and answers alike.  Overload is bounded by the memory ceiling
    ([sv_max_heap_mb]), which sheds mutating requests instead of letting
    the OOM killer take the daemon. *)

module C = Skipflow_core
module Api = Skipflow_api

type cfg = {
  sv_config : C.Config.t;
  sv_roots : string list;  (** initial root names; [[]] = static main *)
  sv_state_dir : string option;  (** snapshots + journal; [None] = none *)
  sv_memo_entries : int;  (** memo capacity (solved states) *)
  sv_timings : bool;  (** report wall_us; off = 0, byte-comparable *)
  sv_max_heap_mb : int option;
      (** memory ceiling: past it, the memo (with the replaced state it
          keeps) and the blob-name cache are dropped and the heap
          compacted; if still over, mutating requests are shed as
          {!Protocol.Overloaded} with a 50ms retry hint
          ([health]/[shutdown] always answer).  Shed responses are never
          journaled. *)
  sv_restarts : int;
      (** how many times the supervisor has restarted this daemon
          (surfaced in [health]; 0 when unsupervised) *)
  sv_log : string -> unit;  (** diagnostics (recovery warnings etc.) *)
}

val default_cfg : cfg
(** skipflow config, main root, no state dir, 8 memo entries, timings
    off, no memory ceiling, not restarted, silent log. *)

type t

val create : ?initial:Api.source -> resume:bool -> cfg -> (t, string) result
(** Start a daemon.  [initial] loads and fully solves a program before
    serving (its errors fail creation — the CLI contract).  A state dir
    is resumed whole or not at all.  With [resume:true] and a manifest
    written under this configuration and these roots, the last snapshot
    is restored (container CRCs, schema versions and the {!C.Verify}
    certifier all guard it; any suspicion — a missing or damaged blob
    included — falls back to a cold start with a logged warning, never a
    refusal) and the journal is loaded for replay; creation also sweeps
    blobs the manifest does not reference and [*.tmp.*] leftovers of a
    crashed writer.  A start with [resume:false], or over a manifest
    written under another configuration (logged, with both
    fingerprints), or without a readable manifest (logged when a damaged
    manifest or a journal is dropped), empties the dir: manifest,
    journal and every blob.  So a journal is replayed only under a
    manifest written by this configuration.
    A resumed daemon prefers the snapshot over [initial]. *)

val handle_line : t -> string -> string list
(** Process one request line to completion: parse, replay-match,
    dispatch, journal, snapshot; returns the response lines (empty for a
    blank input line).  Never raises. *)

val wants_shutdown : t -> bool
(** A [shutdown] request was processed; the loop should {!finalize}. *)

val generation : t -> int
val state : t -> Incremental.state option

val blob_version : int
(** The {!C.Snapshot} schema version of the state dir's blobs.  It
    changes with {!C.Engine.snapshot_version} and with the frozen serve
    state or its fingerprint scheme, so a state dir written under another
    layout resumes as a logged cold start. *)

val finalize : t -> unit
(** Final snapshot, journal flush and close.  Idempotent. *)
