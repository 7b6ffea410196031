(** Domain-safety lint for the parallel solver stack.

    A compiler-libs based, per-file, context-sensitive analysis of how
    mutable state interacts with OCaml 5 domains. It (1) inventories the
    mutable values a file creates (refs, [Hashtbl], [Buffer], arrays,
    records with [mutable] fields), (2) tracks which of them are
    captured by closures handed to the parallel entry points used in
    this codebase ([Domain.spawn], [Pool.map]/[Pool.map_result]), and
    (3) checks every access against the locking discipline it can see:
    lexical [Mutex.lock]/[Mutex.unlock] regions, [Mutex.protect] bodies,
    and — via call-site inlining of same-file functions — lock protection
    inherited from the caller (so a heap helper called only under the
    frontier mutex counts as guarded, while the same helper called from
    single-owner driver code is not flagged at all).

    Deliberate scope limits, chosen so shipped code audits clean without
    annotations:

    - Mutations outside any parallel closure are never flagged: driver
      init before [Domain.spawn] and quiescent reads after [Domain.join]
      are the codebase's single-owner idiom, not races.
    - Guardedness is per-access; the analysis does not prove that the
      {e same} mutex guards every access ([P006] catches the observable
      mixed case).
    - Closures that escape through data structures (e.g. jobs queued
      into a pool's own work queue) are not tracked.
    - Calls into other compilation units are assumed non-blocking and
      non-mutating; this is a lint, not a verifier — the TSan CI job is
      the dynamic cross-check.

    Stable codes:

    - [P000] — file does not parse.
    - [P001] — unsynchronized cross-domain mutation: a parallel closure
      mutates captured mutable state without a held lock while the same
      state is also accessed outside that closure.
    - [P002] — a parallel closure mutates captured mutable state with
      neither a held [Mutex] nor [Atomic] discipline (no second access
      observed; still a race with the owner the analysis cannot see).
    - [P003] — [Atomic.get] → test → [Atomic.set] on the same atomic
      within one conditional: a lost-update window; use
      [Atomic.compare_and_set] (whose presence on that atomic in the
      same conditional exempts the pattern).
    - [P004] — [Condition.wait] that is neither inside a [while] loop
      nor inside a self-recursive [let rec] body: spurious wakeups and
      missed signals require re-testing the predicate.
    - [P005] — a blocking call ([Unix] syscalls, [Domain.join],
      [Pool.map], channel I/O, ...) while holding a mutex; lock
      hold times must stay bounded ([Condition.wait] is exempt — it
      releases the mutex).
    - [P006] — mixed discipline: a parallel closure reads a mutable
      field without the lock that other parallel accesses of the same
      field hold. *)

type finding = {
  code : string;  (** stable, e.g. "P001" *)
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based, compiler convention *)
  message : string;
}

(** [(code, one-line description)] for every diagnostic, in code order. *)
val codes : (string * string) list

(** The mutable values a file creates: [(line, name, kind)] where [kind]
    is the creating construct ([ref], [Hashtbl.create], [Atomic.make],
    [record with mutable field(s)], ...). [Atomic.make] is inventoried
    but its values are exempt from every P-check — atomics are the
    sanctioned cross-domain primitive. *)
val inventory : filename:string -> string -> (int * string * string) list

(** Analyze source text as parsed from [filename] (used verbatim in the
    findings). Parse failures surface as a single [P000] finding. *)
val lint_string : filename:string -> string -> finding list

(** Analyze one [.ml] file. Raises [Sys_error] if unreadable. *)
val lint_file : string -> finding list

(** All [.ml] files under the given files/directories (recursively,
    skipping [_build]/[_opam] and dot-directories), sorted by path. *)
val lint_paths : string list -> finding list

(** One [file:line:col: code message] line per finding. *)
val render : finding list -> string

(** JSON report: finding count plus one object per finding — same shape
    family as {!Lp_audit.to_json}. *)
val to_json : finding list -> string
