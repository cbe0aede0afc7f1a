(** Incremental re-analysis for the serve daemon.

    The resident {!state} is a program source, its solved engine at the
    fixed point, and the content fingerprints an edit is diffed against.
    The fixed-point solver is monotone — facts are only ever added — so
    an arbitrary edit cannot be re-solved in place with {e exact}
    equality to a fresh run (retraction).  Instead, each request is
    classified into the cheapest strategy whose result is {e provably}
    the from-scratch fixed point, falling back to a full solve whenever
    the incremental state is suspect:

    - {b resident}: the request changes nothing (byte-identical source,
      identical root set) — serve the resident fixed point.
    - {b redrain}: the root set grew.  {!Skipflow_core.Engine.add_root}
      on a thaw of the resident image re-drains the worklist from the
      new roots' boundary flows only, under the request's deadline;
      monotone chaotic iteration from the old fixed point — a
      pre-fixpoint of the grown constraint system — reaches the grown
      system's least fixed point.
    - {b reuse}: the class hierarchy fingerprint is unchanged and every
      edited method is outside the resident reachable set.  The fixed
      point is generated only from reachable bodies plus the hierarchy,
      so the resident one is {e exactly} the new program's (this is the
      paper's headline effect turned into an incremental win: the more
      code SkipFlow proves unreachable, the more edits are free).  A
      reuse is a re-drain, with no new roots, of the resident image
      bound to the edited program: the path {b redrain} takes, with no
      work to pop, so no deadline can trip it.  Later redrains and lints
      read the new bodies and positions.  Method fingerprints cover every
      source span, so an edit that moves a reachable method's code, even
      by whitespace, is {b full}.
    - {b memo}: the (source, roots, config) content hash
      ({!Skipflow_core.Cache.key}) hits the bounded in-memory memo of
      previously solved states (toggling edits, A→B→A), and the hit
      passes {!Skipflow_core.Verify}.  A revert hits the image of the
      state the last commit replaced; the memo still holds that state
      ({!Memo.keep}), so it answers without a thaw.
    - {b full}: everything else, and any incremental result that fails
      the {!Skipflow_core.Verify} certifier.

    All mutating operations build a {e candidate} state on an engine of
    its own and leave the resident state untouched until the candidate
    is committed by the caller — a deadline trip or failure rolls back
    by simply keeping the old state. *)

module C = Skipflow_core
module Api = Skipflow_api

type state = {
  source : string;  (** the accepted program source text *)
  roots : string list;  (** requested root names ([] = static main) *)
  engine : C.Engine.t;  (** solved, at the fixed point *)
  snapshot : string;
      (** {!C.Engine.snapshot_bytes} of [engine]: the image of the same
          program, graphs and counters.  Redrain and reuse thaw it
          instead of encoding [engine] again, so every constructor of a
          state keeps this invariant, and nothing mutates a committed
          engine: lint, profile and the other reads only read it, and a
          memo hit on a kept state makes the same engine resident again. *)
  metrics : C.Metrics.t;
  reachable : string list;  (** qualified names, discovery order *)
  meth_hashes : (string * string) list;
      (** qualified name → {!meth_fingerprints} of [engine]'s program,
          sorted by name *)
  hier_hash : string;  (** class-hierarchy fingerprint *)
  generation : int;  (** bumped by every committed mutation *)
}

type strategy =
  | Resident
  | Memo
  | Reuse
  | Redrain of int  (** number of roots added *)
  | Full of string  (** why incremental was not applicable *)

val strategy_name : strategy -> string
(** ["resident" | "memo" | "reuse" | "redrain" | "full"]. *)

val strategy_reason : strategy -> string option
(** The fallback reason, for [Full]. *)

(** {1 Fingerprints} *)

val meth_fingerprints : Skipflow_ir.Program.t -> (string * string) list
(** Per-method content hashes, sorted by qualified name: an MD5 over a
    binary walk of the declaration (name, static flag, signature, span)
    and the lowered body (parameters, variable types, and every block
    with its phis, instructions, terminator and spans).  Classes,
    methods and fields are written by name and locals and blocks by
    their per-body ids, so the hashes are stable across recompiles of
    edited sources. *)

val hierarchy_fingerprint : Skipflow_ir.Program.t -> string
(** A digest of everything the fixed point depends on {e besides}
    reachable bodies: class names, supers, abstractness, field and
    method signatures, and which methods have bodies, in declaration
    order. *)

(** {1 The memo} *)

module Memo : sig
  type t
  (** A bounded LRU from {!C.Cache.key} content hashes to solved states,
      each kept as its {!freeze} bytes: entries are self-contained
      values, and the serve daemon persists each distinct one once, as a
      content-addressed blob.  Beside the entries the memo holds at most
      one live state, the one the last commit replaced ({!keep}). *)

  val create : int -> t

  val peek : t -> string -> string option
  (** Side-effect-free lookup (no LRU refresh): a request that fails
      after a lookup must leave the memo byte-identical, or journal
      replay — which skips failed requests — would drift.  The kept
      state is outside that rule: it is never persisted and never
      decides a strategy, it only stands in for a thaw of the same bytes,
      so every memo lookup of {!edit} and {!analyze_roots} releases it
      (before any compile, solve or thaw), hit or miss. *)

  val add : t -> string * string -> unit
  (** Insert or refresh [(key, frozen bytes)] at the front, evicting
      beyond the capacity.  Callers apply an {!outcome}'s
      [o_memo_adds] through this exactly when they commit it. *)

  val keep : t -> string -> state -> unit
  (** [keep memo frozen st]: hold [st], whose {!freeze} is [frozen], until
      the next memo lookup.  A commit hands it the state it replaces; a
      lookup whose entry is physically [frozen] then answers with [st]
      after {!C.Verify} instead of thawing the bytes.  [st]'s engine
      must not be mutated meanwhile (reads only read it). *)

  val entries : t -> (string * string) list
  (** [(key, frozen state bytes)], most recently used first.  Re-adding
      them oldest first rebuilds the same LRU order. *)

  val clear : t -> unit
  (** Drop every entry and the kept state (capacity kept) — the memory
      ceiling's first relief valve; costs recomputation, never
      correctness. *)
end

(** {1 Operations} *)

type outcome = {
  o_state : state;  (** the candidate; caller commits or discards *)
  o_strategy : strategy;
  o_verified : bool;  (** the {!C.Verify} certifier ran and passed *)
  o_frozen : string Lazy.t;
      (** {!freeze} of [o_state].  For a new candidate these are the very
          bytes of its own entry in [o_memo_adds] (already computed); only
          an unchanged ({b resident}) outcome would marshal on force. *)
  o_memo_adds : (string * string) list;
      (** memo writes to apply (via {!Memo.add}) iff the caller commits
          the candidate; operations never mutate the memo themselves *)
}

val solve_full :
  ?reason:string ->
  config:C.Config.t ->
  deadline_ms:int option ->
  generation:int ->
  source:string ->
  roots:string list ->
  unit ->
  (outcome, Protocol.error) result
(** Compile and solve from scratch.  With a deadline the solve runs
    under a wall-clock budget that pauses on a trip; a pause is
    returned as {!Protocol.Deadline_exceeded} (the caller keeps its old
    state — rollback is the default). *)

val edit :
  config:C.Config.t ->
  deadline_ms:int option ->
  memo:Memo.t ->
  state ->
  source:string ->
  (outcome, Protocol.error) result
(** Classify and apply a source edit: resident / memo / reuse / full.
    [memo]'s entries are only read ({!Memo.peek}); the writes — including
    the pre-edit state, so reverting an edit is a hit — come back in
    [o_memo_adds] for the caller to apply on commit. *)

val analyze_roots :
  config:C.Config.t ->
  deadline_ms:int option ->
  memo:Memo.t ->
  state ->
  roots:string list ->
  (outcome, Protocol.error) result
(** Re-analyze under a new root set: resident when unchanged, memo
    when this (source, roots) was solved before, an incremental
    re-drain when it grew, a full solve otherwise. *)

(** {1 Persistence} *)

val freeze : state -> string
(** Serialize a state (the engine as its snapshot bytes).  The
    generation is left out: it orders commits and is not content, so
    states equal in content freeze to equal bytes. *)

val thaw : string -> (state, string) result
(** Rebuild a frozen state, the engine from its snapshot bytes.  The
    generation comes back as [0] for the caller to set.  [Error] on
    undecodable bytes. *)

val thaw_certified : string -> (state, string) result
(** {!thaw}, then {!C.Verify}: how a memo hit that has no kept state and
    a restarted daemon trust bytes they did not just compute.  [Error]
    names the failed step (["undecodable (...)"] or ["failed
    verification"]). *)

(** {1 Equality certification} *)

val same_fixed_point : C.Engine.t -> C.Engine.t -> (unit, string) result
(** Flow-by-flow equality of two solved engines over possibly distinct
    (but identically shaped) programs: equal reachable qualified-name
    sets, and per method equal flow counts, kinds, enabled bits, and
    value states ([state] and [raw]).  [Error] names the first
    difference.  This is the oracle the serve tests run between
    incremental and from-scratch solves. *)
