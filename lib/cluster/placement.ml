open Littletable

type policy = Hash of { vnodes : int } | Range of Value.t list

type t = {
  p_shards : int;
  p_policy : policy;
  p_overrides : (string * (Value.t * int)) list;
      (** encoded leading value -> (value, owner); newest first *)
  p_epoch : int;
  p_ring : (int64 * int) array;  (** Hash only: sorted (point, shard) *)
  p_points : string array;  (** Range only: encoded split points *)
}

let encoded v =
  let b = Buffer.create 16 in
  Key_codec.encode_value b v;
  Buffer.contents b

let build_ring ~shards ~vnodes =
  let ring = Array.make (shards * vnodes) (0L, 0) in
  for s = 0 to shards - 1 do
    for v = 0 to vnodes - 1 do
      ring.((s * vnodes) + v) <-
        (Lt_util.Fnv.hash (Printf.sprintf "shard-%d-vnode-%d" s v), s)
    done
  done;
  Array.sort (fun (a, _) (b, _) -> Int64.unsigned_compare a b) ring;
  ring

let create ~shards ~policy =
  if shards < 1 then invalid_arg "Placement.create: shards < 1";
  let ring, points =
    match policy with
    | Hash { vnodes } ->
        if vnodes < 1 then invalid_arg "Placement.create: vnodes < 1";
        (build_ring ~shards ~vnodes, [||])
    | Range points ->
        if List.length points <> shards - 1 then
          invalid_arg
            (Printf.sprintf
               "Placement.create: range policy over %d shards needs %d split \
                points, got %d"
               shards (shards - 1) (List.length points));
        let encs = Array.of_list (List.map encoded points) in
        Array.iteri
          (fun i e ->
            if i > 0 && String.compare encs.(i - 1) e >= 0 then
              invalid_arg "Placement.create: split points not strictly ascending")
          encs;
        ([||], encs)
  in
  { p_shards = shards; p_policy = policy; p_overrides = []; p_epoch = 0;
    p_ring = ring; p_points = points }

let shards t = t.p_shards
let epoch t = t.p_epoch
let policy t = t.p_policy
let overrides t = List.map snd t.p_overrides

let describe t =
  match t.p_policy with
  | Hash { vnodes } -> Printf.sprintf "hash(vnodes=%d)" vnodes
  | Range points -> Printf.sprintf "range(points=%d)" (List.length points)

(* First ring point at or after [h], wrapping to the start. *)
let ring_lookup ring h =
  let n = Array.length ring in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.unsigned_compare (fst ring.(mid)) h < 0 then lo := mid + 1
    else hi := mid
  done;
  snd ring.(if !lo = n then 0 else !lo)

(* Shard of an encoded value under the base policy (overrides excluded):
   range shard [i] owns [p_{i-1} <= v < p_i]. *)
let base_shard t enc =
  match t.p_policy with
  | Hash _ -> ring_lookup t.p_ring (Lt_util.Fnv.hash enc)
  | Range _ ->
      let n = Array.length t.p_points in
      let i = ref 0 in
      while !i < n && String.compare t.p_points.(!i) enc <= 0 do
        incr i
      done;
      !i

let shard_of_value t v =
  let enc = encoded v in
  match List.assoc_opt enc t.p_overrides with
  | Some (_, shard) -> shard
  | None -> base_shard t enc

let shard_of_row t schema row =
  shard_of_value t row.((Schema.pkey schema).(0))

let with_override t ~value ~shard =
  if shard < 0 || shard >= t.p_shards then
    invalid_arg "Placement.with_override: shard out of range";
  let enc = encoded value in
  let rest = List.remove_assoc enc t.p_overrides in
  { t with
    p_overrides = (enc, (value, shard)) :: rest;
    p_epoch = t.p_epoch + 1 }

let all_shards t = List.init t.p_shards Fun.id

let sort_dedup shards =
  List.sort_uniq compare shards

let shards_of_prefix t = function
  | [] -> all_shards t
  | v :: _ -> [ shard_of_value t v ]

let leading = function
  | Query.Unbounded | Query.Incl [] | Query.Excl [] -> None
  | Query.Incl (v :: _) | Query.Excl (v :: _) -> Some v

(* Owning shards of a query's bounding box. Over-inclusion is always
   safe — shards hold disjoint key sets (transient rebalance copies are
   deduplicated by the router's merge), so a shard with no matching rows
   simply contributes nothing. *)
let shards_of_query t (q : Query.t) =
  match (leading q.Query.key_low, leading q.Query.key_high) with
  | Some lo, Some hi when String.equal (encoded lo) (encoded hi) ->
      (* Both bounds pin the same leading value: one shard owns every
         matching row. *)
      [ shard_of_value t lo ]
  | lo, hi -> (
      match t.p_policy with
      | Hash _ -> all_shards t
      | Range _ ->
          let lo_idx =
            match lo with None -> 0 | Some v -> base_shard t (encoded v)
          in
          let hi_idx =
            match hi with
            | None -> t.p_shards - 1
            | Some v -> base_shard t (encoded v)
          in
          let span = List.init (hi_idx - lo_idx + 1) (fun i -> lo_idx + i) in
          (* Overridden values may live off their range shard; include
             their owners rather than re-deriving bound membership. *)
          sort_dedup (span @ List.map (fun (_, (_, s)) -> s) t.p_overrides))
