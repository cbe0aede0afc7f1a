(** A crash-safe on-disk result cache for analysis summaries.

    Entries are keyed by a content hash of (source bytes, configuration,
    run scope, schema version) — see {!key} — so a cache hit can only
    serve a result computed from byte-identical inputs under an
    identical configuration {e and} identical run-scoped inputs (analysis
    roots, budget) by a compatible build.  The stored value is
    opaque to this module (the CLI stores its analysis-summary JSON).

    Robustness contract, exercised by the crash-injection fuzz matrix:

    - writes are atomic ({!Snapshot.write}: tmp file + rename), so a
      crash mid-store leaves at worst a stray [.tmp.*] file, never a
      half-written entry;
    - a corrupt entry (truncated, bit-flipped, foreign, or of a stale
      schema version) is detected by the {!Snapshot} container checks,
      {e quarantined} (moved aside into [quarantine/]) and reported as a
      miss — never an exception, never a wrong hit; the quarantine
      directory itself is bounded (at {!create} and after every
      quarantine: entries older than seven days go, then the oldest
      beyond 64) so repeated corruption cannot fill the disk;
    - lookups and stores count into the owning {!Trace.t} as
      [cache.hit] / [cache.miss] / [cache.evict] / [cache.corrupt]. *)

type t

val create : ?trace:Trace.t -> ?max_entries:int -> string -> t
(** [create dir] opens (creating directories as needed) a cache rooted at
    [dir].  [max_entries] (default 512) caps the number of entries;
    {!store} evicts the least-recently-used entries beyond it.  [trace]
    receives the [cache.*] counters. *)

val dir : t -> string

val quarantine_dir : t -> string
(** Where corrupt entries are moved ([<dir>/quarantine]). *)

val fingerprint : Config.t -> string
(** Every configuration field and the cache schema version, as a
    readable [name=value;...] string: equal strings mean equal
    configurations. *)

val key : config:Config.t -> scope:string -> source:string -> string
(** The content hash (hex): digest of the source bytes, every
    configuration field, the cache schema version, and [scope] — any run
    input the configuration does not carry but the result depends on
    (the CLI folds in the analysis roots and the budget, so the same
    source analyzed from different roots never shares an entry, and a
    degraded result is never served to a run with another budget).
    Pass [""] when no such input exists. *)

val entry_path : t -> string -> string
(** The file a key is stored at (exposed so tests can corrupt it). *)

val find : t -> string -> string option
(** [find t k] returns the stored value, or [None] on a miss.  Corrupt
    entries are quarantined and reported as misses.  A hit refreshes the
    entry's LRU clock. *)

val store : t -> string -> string -> (unit, Snapshot.error) result
(** [store t k v] atomically persists [v] under [k], then evicts
    least-recently-used entries past [max_entries].  Errors are reported
    (and counted) but leave the cache consistent. *)
