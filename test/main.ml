let () =
  Alcotest.run "littletable"
    [
      ("util", Test_util.suite);
      ("lz", Test_lz.suite);
      ("bloom", Test_bloom.suite);
      ("hll", Test_hll.suite);
      ("vfs", Test_vfs.suite);
      ("codec", Test_codec.suite);
      ("avl", Test_avl.suite);
      ("period", Test_period.suite);
      ("merge-policy", Test_merge_policy.suite);
      ("flush-graph", Test_flush_graph.suite);
      ("tablet", Test_tablet.suite);
      ("cursor", Test_cursor.suite);
      ("table", Test_table.suite);
      ("cache", Test_cache.suite);
      ("crash", Test_crash.suite);
      ("torture", Test_torture.suite);
      ("delete", Test_delete.suite);
      ("sync", Test_sync.suite);
      ("db", Test_db.suite);
      ("sql", Test_sql.suite);
      ("net", Test_net.suite);
      ("cluster", Test_cluster.suite);
      ("obs", Test_obs.suite);
      ("apps", Test_apps.suite);
      ("shard", Test_shard.suite);
      ("exec", Test_exec.suite);
      ("columnar", Test_columnar.suite);
      ("model", Test_model.suite);
      ("alloc", Test_alloc.suite);
      ("lint", Test_lint.suite);
    ]
