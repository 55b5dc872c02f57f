let () =
  if Sys.getenv_opt Test_net.emfile_child_env <> None then
    Test_net.emfile_child ()
  else
    Alcotest.run "fastver"
      [
        Test_crypto.suite;
        Test_obs.suite;
        Test_key.suite;
        Test_tree.suite;
        Test_verifier.suite;
        Test_oplog.suite;
        Test_adversary.suite;
        Test_kvstore.suite;
        Test_cold.suite;
        Test_core.suite;
        Test_queue.suite;
        Test_baselines.suite;
        Test_workload.suite;
        Test_extensions.suite;
        Test_crashsafe.suite;
        Test_shard.suite;
        Test_parallel.suite;
        Test_simthreads.suite;
        Test_wire.suite;
        Test_net.suite;
        Test_replica.suite;
        Test_fingerprint.suite;
      ]
