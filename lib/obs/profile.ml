type t = {
  p_plan_us : int64;
  p_scan_us : int64;
  p_stall_us : int64;
  p_total_us : int64;
  p_rows_scanned : int;
  p_rows_returned : int;
  p_tablets : int;
  p_tablets_pruned : int;
  p_cache_hits : int;
  p_cache_misses : int;
  p_blocks_footer_answered : int;
  p_columns_decoded : int;
  p_bytes_in : int;
  p_bytes_out : int;
  p_shards : (string * t) list;
}

let empty =
  { p_plan_us = 0L;
    p_scan_us = 0L;
    p_stall_us = 0L;
    p_total_us = 0L;
    p_rows_scanned = 0;
    p_rows_returned = 0;
    p_tablets = 0;
    p_tablets_pruned = 0;
    p_cache_hits = 0;
    p_cache_misses = 0;
    p_blocks_footer_answered = 0;
    p_columns_decoded = 0;
    p_bytes_in = 0;
    p_bytes_out = 0;
    p_shards = [] }

(* Merge same-labeled shard sub-profiles, preserving first-seen label
   order so repeated pages of one query aggregate stably. *)
let rec merge_shards shards =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (label, p) ->
      match Hashtbl.find_opt tbl label with
      | None ->
          order := label :: !order;
          Hashtbl.replace tbl label [ p ]
      | Some ps -> Hashtbl.replace tbl label (p :: ps))
    shards;
  List.rev_map
    (fun label -> (label, aggregate (List.rev (Hashtbl.find tbl label))))
    !order

and aggregate ps =
  let ( ++ ) = Int64.add in
  List.fold_left
    (fun acc p ->
      { p_plan_us = acc.p_plan_us ++ p.p_plan_us;
        p_scan_us = acc.p_scan_us ++ p.p_scan_us;
        p_stall_us = acc.p_stall_us ++ p.p_stall_us;
        p_total_us = acc.p_total_us ++ p.p_total_us;
        p_rows_scanned = acc.p_rows_scanned + p.p_rows_scanned;
        p_rows_returned = acc.p_rows_returned + p.p_rows_returned;
        p_tablets = acc.p_tablets + p.p_tablets;
        p_tablets_pruned = acc.p_tablets_pruned + p.p_tablets_pruned;
        p_cache_hits = acc.p_cache_hits + p.p_cache_hits;
        p_cache_misses = acc.p_cache_misses + p.p_cache_misses;
        p_blocks_footer_answered =
          acc.p_blocks_footer_answered + p.p_blocks_footer_answered;
        p_columns_decoded = acc.p_columns_decoded + p.p_columns_decoded;
        p_bytes_in = acc.p_bytes_in + p.p_bytes_in;
        p_bytes_out = acc.p_bytes_out + p.p_bytes_out;
        p_shards = merge_shards (acc.p_shards @ p.p_shards) })
    empty ps

let ms us = Int64.to_float us /. 1000.0

let rec pp_indent ppf ~indent p =
  let pad = String.make indent ' ' in
  Format.fprintf ppf "%splan    %8.3f ms@." pad (ms p.p_plan_us);
  Format.fprintf ppf
    "%sscan    %8.3f ms  rows scanned=%d returned=%d tablets=%d pruned=%d@."
    pad (ms p.p_scan_us) p.p_rows_scanned p.p_rows_returned p.p_tablets
    p.p_tablets_pruned;
  Format.fprintf ppf "%sstall   %8.3f ms@." pad (ms p.p_stall_us);
  Format.fprintf ppf "%scache   hits=%d misses=%d@." pad p.p_cache_hits
    p.p_cache_misses;
  Format.fprintf ppf "%spush    blocks_footer_answered=%d columns_decoded=%d@."
    pad p.p_blocks_footer_answered p.p_columns_decoded;
  if p.p_bytes_in > 0 || p.p_bytes_out > 0 then
    Format.fprintf ppf "%sbytes   in=%d out=%d@." pad p.p_bytes_in
      p.p_bytes_out;
  List.iter
    (fun (label, sub) ->
      Format.fprintf ppf "%sshard %s: total %.3f ms@." pad label
        (ms sub.p_total_us);
      pp_indent ppf ~indent:(indent + 2) sub)
    p.p_shards

let pp ppf p =
  Format.fprintf ppf "profile: total %.3f ms@." (ms p.p_total_us);
  pp_indent ppf ~indent:2 p

let to_string p = Format.asprintf "%a" pp p
