open Lt_util
module Vfs = Lt_vfs.Vfs
module Obs = Lt_obs.Obs
module Metrics = Lt_obs.Metrics

type t = {
  config : Config.t;
  clock : Clock.t;
  vfs : Vfs.t;
  dir : string;
  tables : (string, Table.t) Hashtbl.t;
  cache : Block.t Lt_cache.Block_cache.t option;
  obs : Obs.t;
  pool : Lt_exec.Pool.t option;
      (** shared scan pool, sized once from [Config.query_domains] *)
  mutex : Mutex.t;
}

let table_dir t name = Filename.concat t.dir name

(* Export every table's Stats counters (plus structural gauges) into
   the Prometheus exposition at snapshot time, so the existing counter
   machinery is the single source of truth and never double-counts. *)
let stats_samples t =
  let gauge name help labels v =
    { Metrics.s_name = name; s_help = help; s_kind = `Gauge; s_labels = labels;
      s_value = float_of_int v }
  in
  let tables =
    Mutexes.with_lock t.mutex (fun () ->
        Hashtbl.fold (fun _ tbl acc -> tbl :: acc) t.tables [])
  in
  let tables =
    List.sort (fun a b -> String.compare (Table.name a) (Table.name b)) tables
  in
  let per_table tbl =
    let table = Table.name tbl in
    let labels = [ ("table", table) ] in
    Stats.samples ~table (Table.stats tbl)
    @ [ gauge "lt_tablets" "On-disk tablets." labels (Table.tablet_count tbl);
        gauge "lt_memtables" "In-memory tablets (filling + frozen)." labels
          (Table.memtable_count tbl);
        gauge "lt_disk_bytes" "Total bytes of on-disk tablets." labels
          (Table.disk_size tbl) ]
  in
  List.concat_map per_table tables
  @ match t.cache with
    | None -> []
    | Some c -> Stats.cache_samples (Stats.cache_of c)

let open_ ?(config = Config.default) ?(clock = Clock.system)
    ?(vfs = Vfs.real ()) ~dir () =
  Vfs.mkdir_p vfs dir;
  let cache =
    if config.Config.cache_bytes > 0 then
      Some (Lt_cache.Block_cache.create ~capacity:config.Config.cache_bytes ())
    else None
  in
  let obs =
    Obs.create ~enabled:config.Config.obs_enabled
      ~slow_op_micros:config.Config.slow_op_micros ~clock ()
  in
  (* [Pool.shared] keys process-wide pools by size, so opening many
     databases with the same config (test suites do) reuses one set of
     worker domains instead of spawning per-[Db]. *)
  let pool =
    if config.Config.query_domains > 0 then
      Some (Lt_exec.Pool.shared ~domains:config.Config.query_domains)
    else None
  in
  let t =
    {
      config;
      clock;
      vfs;
      dir;
      tables = Hashtbl.create 16;
      cache;
      obs;
      pool;
      mutex = Mutex.create ();
    }
  in
  let entries = try Vfs.readdir vfs dir with Vfs.Io_error _ -> [] in
  List.iter
    (fun name ->
      let tdir = table_dir t name in
      if Descriptor.exists vfs ~dir:tdir then begin
        let tbl = Table.open_ ?cache ~obs ?pool vfs ~clock ~config ~dir:tdir ~name in
        Mutexes.with_lock t.mutex (fun () -> Hashtbl.replace t.tables name tbl)
      end)
    entries;
  (* Register only once the table map is populated: the registry is
     process-wide, so a scrape from another thread may run the collector
     as soon as it is visible there. *)
  Metrics.register_collector (Obs.registry obs) (fun () -> stats_samples t);
  t

let config t = t.config

let obs t = t.obs

let scan_pool t = t.pool

let block_cache t = t.cache

let clock t = t.clock

let vfs t = t.vfs

let dir t = t.dir

let validate_name name =
  if name = "" || String.contains name '/' || name = Descriptor.file_name then
    invalid_arg (Printf.sprintf "Db: bad table name %S" name)

let create_table t name schema ~ttl =
  validate_name name;
  Mutexes.with_lock t.mutex (fun () ->
      if Hashtbl.mem t.tables name then
        invalid_arg (Printf.sprintf "Db: table %S already exists" name);
      let table =
        Table.create ?cache:t.cache ~obs:t.obs ?pool:t.pool t.vfs
          ~clock:t.clock ~config:t.config ~dir:(table_dir t name) ~name schema
          ~ttl
      in
      Hashtbl.replace t.tables name table;
      table)

let find_table t name = Mutexes.with_lock t.mutex (fun () -> Hashtbl.find_opt t.tables name)

let table t name =
  match find_table t name with Some tbl -> tbl | None -> raise Not_found

let table_names t =
  Mutexes.with_lock t.mutex (fun () ->
      List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.tables []))

let drop_table t name =
  let tbl =
    Mutexes.with_lock t.mutex (fun () ->
        match Hashtbl.find_opt t.tables name with
        | None -> raise Not_found
        | Some tbl ->
            Hashtbl.remove t.tables name;
            tbl)
  in
  Table.close tbl;
  let tdir = table_dir t name in
  List.iter
    (fun entry ->
      let path = Filename.concat tdir entry in
      try Vfs.delete t.vfs path with Vfs.Io_error _ -> ())
    (try Vfs.readdir t.vfs tdir with Vfs.Io_error _ -> [])

let all_tables t =
  Mutexes.with_lock t.mutex (fun () -> Hashtbl.fold (fun _ tbl acc -> tbl :: acc) t.tables [])

let maintenance t = List.iter Table.maintenance (all_tables t)

let flush_all t = List.iter Table.flush_all (all_tables t)

let close t = List.iter Table.close (all_tables t)
