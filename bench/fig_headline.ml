(* The paper's headline microbenchmark numbers (§1, §5):

   - first matching row from an uncached table of 128-byte rows: 31 ms;
   - scan thereafter: 500,000 rows/second, about 50% of the disk's peak
     throughput;
   - inserts of 512x128-byte batches: 42% of the disk's peak. *)

open Littletable
open Support

let run ~volume () =
  header "Headline: first-row latency, scan rate, insert rate (128 B rows)";
  note "paper: 31 ms to first row; 500k rows/s (~50%% of disk peak);";
  note "inserts at 42%% of disk peak in 512-row batches.";
  let row_size = 128 in
  (* Bloom filters are our implementation of the paper's *proposed*
     extension; the system the paper measured had none, so the headline
     numbers are reproduced without them. *)
  let config = Config.make ~bloom_bits_per_key:0 () in
  let env = make_env ~config () in
  let table = Db.create_table env.db "head" (row_schema ()) ~ttl:None in
  let rng = Lt_util.Xorshift.create 5L in

  (* Load the table in the paper's insert configuration and measure.
     Generating each batch is timed and taken back out, so only the
     engine's work counts as insert time, and the heap holds one batch
     of rows at a time, as a client's would. *)
  let rows_per_batch = 512 in
  let batches = volume / (rows_per_batch * row_size) in
  let gen_s = ref 0.0 in
  let m_insert =
    let m =
      measure env ~bytes:(batches * rows_per_batch * row_size) (fun () ->
          for _ = 1 to batches do
            let t0 = wall () in
            let rows = make_batch rng ~clock:env.clock ~n:rows_per_batch ~row_size in
            gen_s := !gen_s +. (wall () -. t0);
            Table.insert table rows;
            Lt_util.Clock.advance env.clock (Lt_util.Clock.usec rows_per_batch)
          done;
          Table.flush_all table)
    in
    { m with cpu_s = m.cpu_s -. !gen_s }
  in
  Printf.printf "\ninsert (512-row batches): %.1f MB/s effective = %.0f%% of disk peak\n"
    (effective_mb_s m_insert)
    (effective_mb_s m_insert /. disk_seq_mb_s *. 100.0);
  metric ~name:"insert_effective_mb_s" ~value:(effective_mb_s m_insert)
    ~unit:"MB/s";
  Printf.printf "  (cpu-side %.1f MB/s, disk-side %.1f MB/s)\n"
    (float_of_int m_insert.bytes /. 1e6 /. m_insert.cpu_s)
    (disk_mb_s m_insert);

  (* Merge the flushed tablets down (the steady state the paper's table
     is in: "most tables in our system contain half a dozen or so
     tablets per period" after merging). *)
  Lt_util.Clock.advance env.clock (Lt_util.Clock.sec 120);
  while Table.merge_step table do () done;
  Printf.printf "after merging: %d tablet(s)\n" (Table.tablet_count table);

  (* Uncached first-row latency: reopen + cold caches. *)
  let reopened =
    Table.open_ env.vfs ~clock:env.clock ~config
      ~dir:(Filename.concat "bench" "head") ~name:"head"
  in
  Disk_model.clear_cache env.model;
  Disk_model.reset env.model;
  let q = Query.with_limit 1 Query.all in
  ignore (Table.query reopened q);
  let first_row_ms = Disk_model.elapsed_s env.model *. 1000.0 in
  Printf.printf "\nfirst row from an uncached table: %.1f ms (paper: 31 ms)\n"
    first_row_ms;
  metric ~name:"first_row_uncached_ms" ~value:first_row_ms ~unit:"ms";

  (* Scan throughput thereafter. *)
  Disk_model.reset env.model;
  let t0 = wall () in
  let src = Table.query_iter reopened Query.all in
  let rows = ref 0 in
  let rec go () = match src () with Some _ -> incr rows; go () | None -> () in
  go ();
  let cpu_s = wall () -. t0 in
  let disk_s = Disk_model.elapsed_s env.model in
  let eff_s = Float.max cpu_s disk_s in
  let rows_per_s = float_of_int !rows /. eff_s in
  Printf.printf
    "scan: %.0f rows/s effective (%.0f cpu-side, %.0f disk-side) = %.0f%% of disk peak\n"
    rows_per_s
    (float_of_int !rows /. cpu_s)
    (float_of_int !rows /. disk_s)
    (rows_per_s *. float_of_int row_size /. 1e6 /. disk_seq_mb_s *. 100.0);
  metric ~name:"scan_rows_per_s" ~value:rows_per_s ~unit:"rows/s";
  Table.close reopened;
  Db.close env.db
