open Lt_util

type 'a stream = unit -> (string * 'a) option

type source = Value.t array stream

type 'a head = { key : string; row : 'a; prio : int; src : 'a stream }

let merge ~asc sources =
  let cmp a b =
    let c = String.compare a.key b.key in
    let c = if asc then c else -c in
    (* Equal keys: higher priority (newer tablet) first. *)
    if c <> 0 then c else Int.compare b.prio a.prio
  in
  let heap = Heap.create ~cmp in
  List.iter
    (fun (prio, src) ->
      match src () with
      | None -> ()
      | Some (key, row) -> Heap.add heap { key; row; prio; src })
    sources;
  let started = ref false and last_key = ref "" in
  let rec next () =
    match Heap.peek heap with
    | None -> None
    | Some top ->
        (match top.src () with
        | None -> ignore (Heap.pop heap)
        | Some (key, row) ->
            Heap.replace_min heap { top with key; row });
        if !started && String.equal !last_key top.key then
          next () (* shadowed duplicate *)
        else begin
          started := true;
          last_key := top.key;
          Some (top.key, top.row)
        end
  in
  next

let filter_ts ~scanned ?ts_min ?ts_max src =
  let rec next () =
    match src () with
    | None -> None
    | Some (key, _) as item ->
        incr scanned;
        let ts = Key_codec.ts_of_key key in
        let ok_lo = match ts_min with None -> true | Some b -> ts >= b in
        let ok_hi = match ts_max with None -> true | Some b -> ts <= b in
        if ok_lo && ok_hi then item else next ()
  in
  next

let take n src =
  let left = ref n in
  fun () ->
    if !left <= 0 then None
    else begin
      match src () with
      | None ->
          left := 0;
          None
      | some ->
          decr left;
          some
    end

let cap ~limit ~row_limit f src =
  let cap = match limit with None -> row_limit | Some l -> min l row_limit in
  let rec collect acc n =
    if n = 0 then (List.rev acc, Option.is_some (src ()))
    else
      match src () with
      | None -> (List.rev acc, false)
      | Some kv -> collect (f kv :: acc) (n - 1)
  in
  let rows, more = collect [] cap in
  (rows, more && match limit with None -> true | Some l -> l > row_limit)

let fold f init src =
  let rec go acc = match src () with None -> acc | Some kv -> go (f acc kv) in
  go init

let to_list src =
  let rec go acc =
    match src () with None -> List.rev acc | Some kv -> go (kv :: acc)
  in
  go []
