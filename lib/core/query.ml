type key_bound = Unbounded | Incl of Value.t list | Excl of Value.t list

type direction = Asc | Desc

type t = {
  key_low : key_bound;
  key_high : key_bound;
  ts_min : int64 option;
  ts_max : int64 option;
  direction : direction;
  limit : int option;
  projection : int list option;
}

let all =
  {
    key_low = Unbounded;
    key_high = Unbounded;
    ts_min = None;
    ts_max = None;
    direction = Asc;
    limit = None;
    projection = None;
  }

let prefix vs = { all with key_low = Incl vs; key_high = Incl vs }

let between ?ts_min ?ts_max q =
  let merge_lo = match (q.ts_min, ts_min) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (max a b)
  in
  let merge_hi = match (q.ts_max, ts_max) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (min a b)
  in
  { q with ts_min = merge_lo; ts_max = merge_hi }

let with_direction direction q = { q with direction }

let with_limit limit q = { q with limit = Some limit }

let with_projection cols q = { q with projection = Some cols }

type compiled = { lo : string; hi : string option }

(* The timestamp is the last key column, so a bound that fixes every
   other key column can carry a ts bound too: every key under the prefix
   [vs] is [vs] followed by its 8-byte ts, and those keys sort by ts. *)
let with_ts schema vs ts =
  match ts with
  | Some t when List.length vs = Array.length (Schema.pkey schema) - 1 ->
      vs @ [ Value.Timestamp t ]
  | _ -> vs

let compile schema q =
  let lo =
    match q.key_low with
    | Unbounded -> Some ""
    | Incl vs -> Some (Key_codec.encode_prefix schema (with_ts schema vs q.ts_min))
    | Excl vs -> (
        (* Everything strictly after every key starting with vs. *)
        match Key_codec.prefix_succ (Key_codec.encode_prefix schema vs) with
        | Some s -> Some s
        | None -> None (* no key can follow an all-0xff prefix *))
  in
  let hi =
    match q.key_high with
    | Unbounded -> Some None
    | Incl vs ->
        Some
          (Key_codec.prefix_succ
             (Key_codec.encode_prefix schema (with_ts schema vs q.ts_max)))
    | Excl vs -> Some (Some (Key_codec.encode_prefix schema vs))
  in
  match (lo, hi) with
  | None, _ -> None
  | Some _, None -> None
  | Some lo, Some hi -> (
      match hi with
      | Some h when String.compare lo h >= 0 -> None
      | _ -> Some { lo; hi })

let pp_bound ppf = function
  | Unbounded -> Format.fprintf ppf "-"
  | Incl vs ->
      Format.fprintf ppf "[%s]"
        (String.concat ", " (List.map Value.to_string vs))
  | Excl vs ->
      Format.fprintf ppf "(%s)"
        (String.concat ", " (List.map Value.to_string vs))

let pp ppf q =
  Format.fprintf ppf "@[key %a .. %a, ts %s .. %s, %s%s@]" pp_bound q.key_low
    pp_bound q.key_high
    (match q.ts_min with None -> "-inf" | Some t -> Int64.to_string t)
    (match q.ts_max with None -> "+inf" | Some t -> Int64.to_string t)
    (match q.direction with Asc -> "asc" | Desc -> "desc")
    (match q.limit with None -> "" | Some n -> Printf.sprintf ", limit %d" n)
