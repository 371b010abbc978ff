(* Aggregated test runner: every library contributes its suites. *)

let () =
  Alcotest.run "hotpath"
    (List.concat
       [ Test_util.suites; Test_cfg.suites; Test_vm.suites; Test_trace.suites;
         Test_profiling.suites; Test_prediction.suites; Test_metrics.suites;
         Test_workloads.suites; Test_dynamo.suites; Test_boa.suites;
         Test_serialize.suites; Test_stream.suites; Test_events.suites; Test_ablations.suites; Test_properties.suites; Test_offline.suites; Test_phased.suites; Test_segmenter.suites;
         Test_analysis.suites; Test_session.suites; Test_serve.suites;
         Test_kschemes.suites; Test_engine.suites; Test_static.suites; Test_experiments.suites ])
