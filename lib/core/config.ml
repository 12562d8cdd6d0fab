open Lt_util

type t = {
  block_size : int;
  flush_size : int;
  flush_age : int64;
  max_tablet_size : int;
  merge_delay : int64;
  rollover_spread : float;
  bloom_bits_per_key : int;
  flush_backlog : int;
  server_row_limit : int;
  enforce_unique : bool;
  cache_bytes : int;
  obs_enabled : bool;
  slow_op_micros : int64;
  query_domains : int;
  columnar_age : int64;
}

let default =
  {
    block_size = 64 * 1024;
    flush_size = 16 * 1024 * 1024;
    flush_age = Int64.mul 10L Clock.minute;
    max_tablet_size = 128 * 1024 * 1024;
    merge_delay = Clock.sec 90;
    rollover_spread = 1.0;
    bloom_bits_per_key = 10;
    flush_backlog = 1;
    server_row_limit = 65536;
    enforce_unique = true;
    cache_bytes = 64 * 1024 * 1024;
    obs_enabled = true;
    slow_op_micros = Clock.msec 100;
    query_domains = Lt_exec.Pool.default_domains ();
    columnar_age = Int64.max_int;
  }

let make ?(block_size = default.block_size) ?(flush_size = default.flush_size)
    ?(flush_age = default.flush_age)
    ?(max_tablet_size = default.max_tablet_size)
    ?(merge_delay = default.merge_delay)
    ?(rollover_spread = default.rollover_spread)
    ?(bloom_bits_per_key = default.bloom_bits_per_key)
    ?(flush_backlog = default.flush_backlog)
    ?(server_row_limit = default.server_row_limit)
    ?(enforce_unique = default.enforce_unique)
    ?(cache_bytes = default.cache_bytes) ?(obs_enabled = default.obs_enabled)
    ?(slow_op_micros = default.slow_op_micros)
    ?(query_domains = default.query_domains)
    ?(columnar_age = default.columnar_age) () =
  {
    block_size;
    flush_size;
    flush_age;
    max_tablet_size;
    merge_delay;
    rollover_spread;
    bloom_bits_per_key;
    flush_backlog;
    server_row_limit;
    enforce_unique;
    cache_bytes;
    obs_enabled;
    slow_op_micros;
    query_domains;
    columnar_age;
  }
