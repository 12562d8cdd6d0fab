(** Protection-contract inference over {!Escape} facts.

    Consumes the per-function summaries of every compilation unit and
    produces typed findings:

    - {b crossing closure fixpoint}: a function is {e crossing} if its
      body is a closure literal passed to a crossing primitive, if it
      escapes into one by name, or (module-locally) if a crossing
      function of the same file calls it;
    - {b ambient must-locksets}: [must(f)] is the intersection over all
      call sites of [f] of the locks held there (plus the caller's own
      must-set) — so a helper always called under [Table.state]
      inherits that protection even though it takes no lock itself;
    - {b per-cell contracts}: for each mutable cell, the intersection
      of effective locks over all non-owned accesses.  A cell reachable
      from a crossing closure with an empty intersection is a
      [domain-race] (or [atomic-discipline] when it is a plain [ref]
      counter); a cell with no crossing access but an unlocked write
      {e and} locked accesses elsewhere is a mixed-discipline
      [domain-race];
    - {b blocking-under-lock}: blocking operations and cross-module
      lock acquisitions whose effective (lexical ∪ ambient) lockset
      contains a hot-path lock class.

    All output is sorted; two runs over the same facts are
    byte-identical. *)

type finding = {
  f_rule : string;
      (** [domain-race], [blocking-under-lock], or [atomic-discipline] *)
  f_site : Escape.site;  (** primary site — anchors suppression *)
  f_other : Escape.site option;  (** second conflicting site, if any *)
  f_msg : string;
}

val hot_locks : string list
(** Lock classes treated as hot-path for [blocking-under-lock]:
    [table.t.state], [table.t.writer_lock], [block_cache.t.mutex]. *)

val analyze : Escape.facts list -> finding list
