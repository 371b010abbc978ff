module Recorder = Hotpath_trace.Recorder
module Prng = Hotpath_util.Prng

type paper_row = {
  pr_paths : int;
  pr_flow_m : int;
  pr_hot_paths : int;
  pr_hot_flow_pct : float;
  pr_unique_heads : int;
  pr_in_dynamo : bool;
}

type benchmark = {
  b_name : string;
  b_description : string;
  b_spec : Generator.t;
  b_seed : int;
  b_flow : int;
  b_paper : paper_row;
}

let hot_threshold = 0.001

let mk name ~description ~loops ~procs ?phase_steps ~seed ~paper () =
  {
    b_name = name;
    b_description = description;
    b_spec =
      { Generator.g_name = name; g_loops = loops; g_procs = procs;
        g_phase_steps = phase_steps };
    b_seed = seed;
    b_flow = paper.pr_flow_m * 100;
    b_paper = paper;
  }

let lp = Generator.loop

let micro ?period n = (n, Generator.micro_loop ?fire_period:period ())

(* Paper rows: Tables 1 and 2; pr_in_dynamo per Figure 5. *)

let compress =
  mk "compress"
    ~description:"tight compression kernel: few loops, extreme path dominance"
    ~loops:[ (6, lp ~branches:5 ~bias:0.965 ~iterations:500 ()); micro ~period:24 400 ]
    ~procs:1 ~seed:1001
    ~paper:
      { pr_paths = 230; pr_flow_m = 3061; pr_hot_paths = 45;
        pr_hot_flow_pct = 99.6; pr_unique_heads = 143; pr_in_dynamo = true }
    ()

let gcc =
  mk "gcc"
    ~description:
      "compiler: huge flat path population, under half the flow in hot paths"
    ~loops:
      [
        (24, lp ~branches:10 ~bias:0.5 ~iterations:12 ~calls:true ());
        (100, lp ~branches:8 ~bias:0.58 ~iterations:6 ~calls:true ());
        (16, lp ~branches:6 ~bias:0.62 ~iterations:10 ~indirect:6 ());
        (9, lp ~branches:6 ~bias:0.9 ~iterations:55 ());
        micro ~period:24 3000;
      ]
    ~procs:14 ~seed:1002
    ~paper:
      { pr_paths = 36_738; pr_flow_m = 2191; pr_hot_paths = 137;
        pr_hot_flow_pct = 47.5; pr_unique_heads = 8_873; pr_in_dynamo = false }
    ()

let go =
  mk "go"
    ~description:"game search: many lukewarm paths, weak dominance"
    ~loops:
      [
        (30, lp ~branches:9 ~bias:0.55 ~iterations:9 ());
        (40, lp ~branches:7 ~bias:0.65 ~iterations:7 ~calls:true ());
        (8, lp ~branches:5 ~bias:0.9 ~iterations:75 ());
        micro ~period:16 1500;
      ]
    ~procs:8 ~seed:1003
    ~paper:
      { pr_paths = 29_629; pr_flow_m = 1214; pr_hot_paths = 172;
        pr_hot_flow_pct = 55.5; pr_unique_heads = 1_813; pr_in_dynamo = false }
    ()

let ijpeg =
  mk "ijpeg"
    ~description:
      "image codec: very wide bodies (huge static path space) but dominant \
       inner loops"
    ~loops:
      [
        (8, lp ~branches:12 ~bias:0.97 ~iterations:500 ());
        (60, lp ~branches:14 ~bias:0.55 ~iterations:3 ());
        micro ~period:4 60;
      ]
    ~procs:4 ~seed:1004
    ~paper:
      { pr_paths = 62_125; pr_flow_m = 635; pr_hot_paths = 74;
        pr_hot_flow_pct = 93.3; pr_unique_heads = 669; pr_in_dynamo = false }
    ()

let li =
  mk "li"
    ~description:"lisp interpreter: dispatch loops with skewed opcode mix"
    ~loops:
      [
        (10, lp ~branches:6 ~bias:0.92 ~iterations:100 ~indirect:8 ~calls:true ());
        (4, lp ~branches:5 ~bias:0.93 ~iterations:150 ());
        micro ~period:48 1600;
      ]
    ~procs:4 ~seed:1005
    ~paper:
      { pr_paths = 1_391; pr_flow_m = 3985; pr_hot_paths = 111;
        pr_hot_flow_pct = 93.8; pr_unique_heads = 710; pr_in_dynamo = true }
    ()

let m88ksim =
  mk "m88ksim"
    ~description:"CPU simulator: steady decode/execute loops"
    ~loops:
      [
        (10, lp ~branches:6 ~bias:0.92 ~iterations:100 ~calls:true ());
        (6, lp ~branches:5 ~bias:0.9 ~iterations:60 ());
        micro ~period:32 900;
      ]
    ~procs:4 ~seed:1006
    ~paper:
      { pr_paths = 1_426; pr_flow_m = 2014; pr_hot_paths = 107;
        pr_hot_flow_pct = 92.5; pr_unique_heads = 651; pr_in_dynamo = true }
    ()

let perl =
  mk "perl"
    ~description:"perl interpreter: opcode dispatch plus regex inner loops"
    ~loops:
      [
        (12, lp ~branches:7 ~bias:0.93 ~iterations:110 ~indirect:6 ~calls:true ());
        (6, lp ~branches:6 ~bias:0.75 ~iterations:12 ());
        micro ~period:32 1400;
      ]
    ~procs:6 ~seed:1007
    ~paper:
      { pr_paths = 2_776; pr_flow_m = 1514; pr_hot_paths = 146;
        pr_hot_flow_pct = 88.5; pr_unique_heads = 1_053; pr_in_dynamo = true }
    ()

let vortex =
  mk "vortex"
    ~description:"object database: call-heavy transaction loops"
    ~loops:
      [
        (30, lp ~branches:7 ~bias:0.95 ~iterations:140 ~calls:true ());
        (12, lp ~branches:6 ~bias:0.88 ~iterations:60 ~calls:true ());
        micro ~period:24 3200;
      ]
    ~procs:10 ~seed:1008
    ~paper:
      { pr_paths = 5_825; pr_flow_m = 3016; pr_hot_paths = 95;
        pr_hot_flow_pct = 85.8; pr_unique_heads = 3_414; pr_in_dynamo = false }
    ()

let deltablue =
  mk "deltablue"
    ~description:"incremental constraint solver: small hot core"
    ~loops:
      [
        (4, lp ~branches:5 ~bias:0.9 ~iterations:130 ~calls:true ());
        (2, lp ~branches:4 ~bias:0.92 ~iterations:200 ());
        (3, lp ~branches:6 ~bias:0.72 ~iterations:8 ());
        micro ~period:24 700;
      ]
    ~procs:2 ~seed:1009
    ~paper:
      { pr_paths = 505; pr_flow_m = 1799; pr_hot_paths = 28;
        pr_hot_flow_pct = 93.9; pr_unique_heads = 268; pr_in_dynamo = true }
    ()

let all = [ compress; gcc; go; ijpeg; li; m88ksim; perl; vortex; deltablue ]

let names = List.map (fun b -> b.b_name) all

let find name = List.find_opt (fun b -> b.b_name = name) all

let find_exn name =
  match find name with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Suite.find_exn: unknown benchmark %s" name)

let dynamo_set = List.filter (fun b -> b.b_paper.pr_in_dynamo) all

let phased_demo =
  {
    Generator.g_name = "phased-demo";
    g_loops =
      [ (6, Generator.loop ~branches:6 ~bias:0.97 ~iterations:200 ~phase_flip:true ()) ];
    g_procs = 1;
    g_phase_steps = Some 300_000;
  }

let record_phased ?(max_paths = 120_000) ?(seed = 23) () =
  let program, behavior = Generator.build phased_demo ~seed in
  Recorder.record ~max_paths ~max_steps:(max_paths * 200) program behavior
    ~rng:(Prng.create ~seed:(seed + 6))

let program b = fst (Generator.build b.b_spec ~seed:b.b_seed)

type inputs = {
  i_program : Hotpath_cfg.Cfg.program;
  i_behavior : Hotpath_vm.Behavior.t;
  i_rng_seed : int;
  i_max_paths : int;
  i_max_steps : int;
}

let inputs ?(scale = 1.0) b =
  let program, behavior = Generator.build b.b_spec ~seed:b.b_seed in
  let max_paths = max 1000 (int_of_float (scale *. float_of_int b.b_flow)) in
  {
    i_program = program;
    i_behavior = behavior;
    i_rng_seed = b.b_seed * 7919;
    i_max_paths = max_paths;
    i_max_steps = max_paths * 200;
  }

let record ?scale b =
  let i = inputs ?scale b in
  Recorder.record ~max_paths:i.i_max_paths ~max_steps:i.i_max_steps i.i_program
    i.i_behavior ~rng:(Prng.create ~seed:i.i_rng_seed)

(* Same inputs as [record], so the emitted stream decodes to the
   recording [record] would materialize. *)
let record_stream ?scale ?chunk_instances ?events b ~sink =
  let i = inputs ?scale b in
  Hotpath_trace.Serialize.Stream.record ~max_paths:i.i_max_paths
    ~max_steps:i.i_max_steps ?chunk_instances ?events i.i_program i.i_behavior
    ~rng:(Prng.create ~seed:i.i_rng_seed) ~sink
