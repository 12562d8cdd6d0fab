(** Fixed-size domain worker pool.

    The one place in the tree that spawns domains (the [domain-discipline]
    lint rule flags [Domain.spawn]/[Domain.join] anywhere else), so worker
    counts, shutdown, and queue behaviour stay centralized. Tasks are run
    FIFO by [domains] long-lived worker domains.

    Tasks must never block on other pool tasks: every consumer-side wait
    in the engine ({!Pscan}) is designed so producer tasks always run to
    completion without waiting themselves, which makes pool starvation
    deadlocks impossible by construction. *)

type t

type task = unit -> unit

(** [create ~domains] spawns [domains] (>= 1) worker domains.
    @raise Invalid_argument when [domains < 1]. *)
val create : domains:int -> t

val size : t -> int

(** The default worker count for {!Lt_util} engines:
    [max 1 (recommended_domain_count () - 2)], leaving headroom for the
    caller's domain and the server's accept/maintenance threads. *)
val default_domains : unit -> int

(** Fire-and-forget submission. Tasks run FIFO; a raising task is
    swallowed and its worker keeps running, so a task that needs its
    outcome reported captures it itself (as {!Pscan} producers do).
    @raise Invalid_argument after {!shutdown}. *)
val submit_task : t -> task -> unit

(** Stop accepting work, drain queued tasks, and join every worker
    domain. Idempotent; safe to call from any thread that is not a
    worker. *)
val shutdown : t -> unit

(** [shared ~domains] is the process-wide pool of exactly that size,
    created on first request and never shut down — [Db.open_] uses it so
    any number of databases (test suites open hundreds) share a bounded
    set of domains, and a server's single [Db] still sizes its pool once
    at startup from [Config.query_domains]. *)
val shared : domains:int -> t
