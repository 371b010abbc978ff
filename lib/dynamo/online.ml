module Cfg = Hotpath_cfg.Cfg
module Path_table = Hotpath_trace.Path_table
module Recorder = Hotpath_trace.Recorder

type outcome = { o_result : Engine.result; o_instances : int; o_paths : int }

let run ?max_steps ?max_paths ?max_stack ~config program behavior ~rng =
  let table = Path_table.create () in
  let stepper =
    Engine.Stepper.create config ~program ~lookup:(Path_table.path table)
  in
  let summary =
    Recorder.run ?max_steps ?max_paths ?max_stack program behavior ~rng ~table
      ~on_instance:(fun id arrival ->
          Engine.Stepper.step stepper ~path:(Path_table.path table id) ~arrival)
  in
  {
    o_result = Engine.Stepper.finalize stepper;
    o_instances = summary.Recorder.cs_instances;
    o_paths = summary.Recorder.cs_paths;
  }
