(** The sharding router: a front-end that speaks the unmodified
    {!Lt_net.Protocol} to clients while spreading data and work over N
    backend LittleTable servers (§2.2's many-shards deployment, made
    transparent).

    Routing by request:
    - inserts are grouped by {!Placement.shard_of_row} and sub-batched
      to each owner;
    - queries fan out to {!Placement.shards_of_query} and the shards'
      ordered page streams are recombined with the engine's own
      {!Littletable.Cursor.merge}, then re-capped — rows, order, and
      [more_available] are byte-identical to a single node holding all
      the rows (provided [row_limit] equals the backends'
      [server_row_limit]); [scanned] and stats are summed across the
      backend pages actually fetched;
    - [Latest] goes to the prefix's owner (or fans out for the empty
      prefix, keeping max-timestamp/larger-key, the single-node
      winner);
    - DDL and [Flush_before] fan out to every shard;
    - [Get_metrics_snapshot] answers with {!Lt_obs.Metrics.federate} of
      the router's own registry (labelled [shard="router"]) and every
      reachable shard's snapshot, plus an [lt_router_shard_up{shard}]
      gauge that reads 0 for an unreachable shard; [Get_trace] gathers
      the router's and every shard's matching spans;
    - [Get_placement] describes the shard set, policy, and epoch.

    Reads fail over per shard to warm-spare replicas (see
    {!Cluster_client}); writes do not.

    Consistency note: inserts and rebalance serialize on one router
    mutex — the insert path is single-file through the router. Queries
    take no lock; during a rebalance copy they may see a key on two
    shards, which the merge deduplicates. *)

open Littletable

(** Raised by {!rebalance} when a backend fails mid-operation. The
    placement is only flipped after the copy phase completes, so an
    aborted rebalance never loses rows (it can leave a partial copy on
    the destination, which the next attempt clears). *)
exception Rebalance_error of string

type t

(** [create ?obs ?row_limit ~placement ~cluster ()]. [row_limit] is the
    router's own page cap, defaulting to
    {!Config.default}'s [server_row_limit]; for byte-identical paging it
    must equal the backends' configured limit.
    @raise Invalid_argument when the placement and cluster disagree on
    the shard count, or [row_limit < 1]. *)
val create :
  ?obs:Lt_obs.Obs.t ->
  ?row_limit:int ->
  placement:Placement.t ->
  cluster:Cluster_client.t ->
  unit ->
  t

(** Dispatch one request. Never raises: backend failures surface as
    [Error] responses ("backend unavailable: ..." once a shard has no
    live peer). *)
val handle : t -> Lt_net.Protocol.request -> Lt_net.Protocol.response

(** Current placement (epoch bumps on every {!rebalance}). *)
val placement : t -> Placement.t

val cluster : t -> Cluster_client.t

(** [rebalance t ~value ~to_shard] moves every row whose leading key
    column equals [value] — across all tables — to [to_shard]:
    copy (paged queries + inserts), flip the placement override, then
    bulk {!Littletable.Table.delete_prefix} on the old owner (§2.2,
    §7). Holds the router mutex throughout, so concurrent inserts
    queue rather than race the move. Returns rows moved (0 when
    [value] already lives on [to_shard]).
    @raise Rebalance_error on backend failure mid-operation. *)
val rebalance : t -> value:Value.t -> to_shard:int -> int

(** A {!Lt_net.Server.backend} serving {!handle}, for
    [littletable-server --router]. *)
val backend : t -> Lt_net.Server.backend
