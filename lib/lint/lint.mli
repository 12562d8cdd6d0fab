(** Project-invariant static analyzer.

    Two passes. The parse pass reads every [.ml]/[.mli] under the given
    roots with compiler-libs and enforces the eight LittleTable
    invariants the type checker cannot see (see DESIGN.md "Static
    analysis"):

    - [vfs-discipline]: no raw [Unix]/[Sys]/[Stdlib] filesystem calls
      outside [lib/vfs] — everything durability-relevant must flow
      through {!Vfs} so the crash-point torture harness sees it.
    - [lock-safety]: no bare [Mutex.lock]/[Mutex.unlock] outside
      [lib/util/mutexes.ml] — critical sections must use the
      exception-safe [Mutexes.with_lock].
    - [lock-order]: builds a static lock-acquisition graph from nested
      [with_lock] regions (interprocedural, across modules) and flags
      any cycle.
    - [clock-discipline]: no [Unix.gettimeofday]/[Unix.time]/[Sys.time]
      or [Random] outside [lib/util/clock.ml] — time and randomness
      must be injectable for [--replay] determinism.
    - [no-stdout]: lib code logs via [Logs], never [print_*]/[printf].
    - [domain-discipline]: [Domain.spawn]/[Domain.join] only inside
      [lib/exec] — worker domains come from the shared [Lt_exec.Pool].
    - [mli-coverage]: every module under [lib/] keeps an interface.
    - [net-discipline]: raw [Unix] socket calls ([socket], [connect],
      [bind], [accept], ...) only inside [lib/net] — every wire
      interaction goes through [Protocol]/[Client]/[Server] so framing,
      versioning, and reconnect policy stay in one place.

    The typed pass ([?typed:true]) loads the [.cmt] files dune emitted
    for the same sources ({!Cmt_load}), collects domain-escape and
    lock-region facts per function ({!Escape}), infers per-cell
    protection contracts ({!Lockset}), and adds three rules:

    - [domain-race]: a mutable cell ([mutable] field, [ref], [Hashtbl],
      [Queue], [Buffer], [Bytes]) reachable from a closure that crosses
      a domain boundary must have one common [with_lock] class across
      every access, or be [Atomic.t]; mixed lock discipline (a locked
      site and an unlocked write) is flagged even without a crossing.
    - [blocking-under-lock]: no VFS I/O, sleeps, socket ops, or
      cross-module lock acquisition while a hot-path mutex
      ([Table.state], [Table.writer_lock], [Block_cache]'s mutex) is held,
      lexically or ambiently (held by every caller).
    - [atomic-discipline]: plain [ref] counters updated across domains
      must be [Atomic.t].

    A finding is suppressed only by an explicit
    [[@lint.allow "<rule>: <justification>"]] attribute on the
    enclosing expression, binding, or item ([[@@@lint.allow ...]] for a
    whole file). A malformed or unknown suppression is itself reported
    (rule [lint-allow]). *)

type finding = {
  f_file : string;  (** path as given (relative to the scan cwd) *)
  f_line : int;  (** 1-based *)
  f_col : int;  (** 0-based, matching compiler convention *)
  f_rule : string;
  f_msg : string;
}

val rule_names : string list
(** The enforceable rules, in reporting order. *)

val rules_with_doc : (string * string) list
(** Rule name plus its one-paragraph rationale, in reporting order. *)

val typed_rules : string list
(** The rules that need the cmt-based pass ([?typed:true]). *)

val rule_doc : string -> string
(** One-line rationale for a rule name (for [--rules] listings). *)

val rule_example : string -> (string * string) option
(** [(bad, good)] minimal example pair for [--explain]. *)

type root = { root_path : string; root_rules : string list option }
(** A scan root, optionally restricted to a rule subset — e.g. [test/]
    is linted for [clock-discipline] and [no-stdout] only. *)

val root : ?only:string list -> string -> root

val run :
  ?rules:string list ->
  ?typed:bool ->
  ?cmt_roots:string list ->
  roots:root list ->
  unit ->
  finding list
(** [run ~roots ()] scans every [.ml]/[.mli] under [roots]
    (directories or single files; [_build] and dot-directories are
    skipped) and returns the surviving findings sorted by file, line,
    column, and rule. [?rules] restricts checking to the named subset;
    a root's own [root_rules] restriction applies on top, per file.
    With [?typed:true] the cmt-based rules run too, over the [.cmt]
    files found under [?cmt_roots] (default: the root paths, falling
    back to [_build/default/<root>]). Unreadable or syntactically
    invalid files yield [parse] findings. *)

val to_plain : finding -> string
(** ["file:line: \[rule\] message"]. *)

val to_github : finding -> string
(** GitHub Actions workflow-command annotation for the finding. *)
