(* vbench: the vismat end-to-end benchmark.

     vbench --workload NAME --seed N --seconds S --trace 0|1
            [--commit ID] [--trace-file PATH]

   Runs one workload for at least S seconds on inputs made from the seed,
   checks its outputs, and prints, as its last line, one JSON object
   {correct, attempted, failed, metrics}.  With --trace 0 the metrics are
   the end-to-end ones; with --trace 1 they are the per-layer ones, and
   the recorded spans are written to the trace file.  The metric names
   and units are those of BENCHMARK.json in the working directory.  Exits
   1 when an output check failed, 2 on bad arguments or a missing
   BENCHMARK.json. *)

open Common
module J = Vis_util.Json

(* name, pool width, run *)
let workloads =
  [
    ("optimize-star7", Wl_optimize.(jobs Star7), Wl_optimize.(run Star7));
    ("optimize-chain4", Wl_optimize.(jobs Chain4), Wl_optimize.(run Chain4));
    ("refresh-stream", Wl_refresh.jobs, Wl_refresh.run);
    ("serve-drift", Wl_serve.jobs, Wl_serve.run);
  ]

let usage () =
  prerr_endline
    "usage: vbench --workload NAME --seed N --seconds S --trace 0|1 \
     [--commit ID] [--trace-file PATH]";
  Printf.eprintf "workloads: %s\n"
    (String.concat ", " (List.map (fun (name, _, _) -> name) workloads));
  exit 2

(* BENCHMARK.json's end-to-end and per-layer metrics, as (name, unit)
   lists in file order. *)
let catalogue () =
  let bad msg =
    prerr_endline ("vbench: BENCHMARK.json: " ^ msg);
    exit 2
  in
  let spec =
    try J.of_string (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all)
    with Sys_error msg | J.Parse_error msg -> bad msg
  in
  let metrics key =
    match J.member key spec with
    | J.List l ->
        List.map
          (fun m ->
            match (J.member "name" m, J.member "unit" m) with
            | J.String name, J.String unit -> (name, unit)
            | _ -> bad ("a metric of " ^ key ^ " lacks a name or unit"))
          l
    | _ -> bad ("no " ^ key ^ " list")
  in
  (metrics "end_to_end", metrics "per_layer")

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 0. in
  let trace = ref (-1) and commit = ref "unknown" and trace_file = ref "" in
  (try
     Arg.parse_argv Sys.argv
       [
         ("--workload", Arg.Set_string workload, "");
         ("--seed", Arg.Set_int seed, "");
         ("--seconds", Arg.Set_float seconds, "");
         ("--trace", Arg.Set_int trace, "");
         ("--commit", Arg.Set_string commit, "");
         ("--trace-file", Arg.Set_string trace_file, "");
       ]
       (fun a -> raise (Arg.Bad a))
       ""
   with Arg.Bad _ | Arg.Help _ -> usage ());
  let jobs, run =
    match List.find_opt (fun (name, _, _) -> name = !workload) workloads with
    | Some (_, jobs, f) when !seconds > 0. && (!trace = 0 || !trace = 1) -> (jobs, f)
    | _ -> usage ()
  in
  let end_to_end, per_layer = catalogue () in
  let ctx = { seed = !seed; seconds = !seconds; trace = !trace = 1 } in
  let host =
    [
      ("workload", J.String !workload);
      ("seed", J.Int !seed);
      ("jobs", J.Int jobs);
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.String Sys.ocaml_version);
      ("commit", J.String !commit);
      ("trace", J.Bool ctx.trace);
    ]
  in
  let ref_before = host_ref_ms () in
  let t0 = now () in
  let res = run ctx in
  let wall = now () -. t0 in
  let ref_after = host_ref_ms () in
  let wanted = if ctx.trace then per_layer else end_to_end in
  let span_cost = if ctx.trace then Span.cost_ns () else 0. in
  let value name =
    if name = "run.span_cost_ns" then Some span_cost
    else List.assoc_opt name res.metrics
  in
  let unknown =
    List.filter_map
      (fun (n, _) ->
        if List.mem_assoc n end_to_end || List.mem_assoc n per_layer then None
        else Some ("unknown metric " ^ n))
      res.metrics
  in
  let missing =
    if ctx.trace then []
    else
      List.filter_map
        (fun (n, _) ->
          match value n with
          | Some v when v > 0. && Float.is_finite v -> None
          | Some v -> Some (Printf.sprintf "end-to-end metric %s is %g" n v)
          | None -> Some ("end-to-end metric missing: " ^ n))
        end_to_end
  in
  let problems = res.problems @ unknown @ missing in
  let correct = problems = [] in
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) problems;
  let host =
    host
    @ [
        ("wall_s", J.Float wall);
        ("host_ref_ms_before", J.Float ref_before);
        ("host_ref_ms_after", J.Float ref_after);
      ]
  in
  Printf.printf "host %s\n" (J.to_string (J.Obj host));
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:0. (value name) in
        Printf.printf "  %-36s %16.6g %s\n" name v unit;
        (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ]))
      wanted
  in
  if ctx.trace && !trace_file <> "" then begin
    let oc = open_out !trace_file in
    output_string oc
      (J.to_string
         (J.Obj
            [
              ("host", J.Obj host);
              ( "metrics",
                J.Obj
                  (List.map
                     (fun (n, _) -> (n, J.Float (Option.value ~default:0. (value n))))
                     (end_to_end @ per_layer)) );
              ("problems", J.List (List.map (fun p -> J.String p) problems));
              ( "self_s",
                J.Obj
                  (List.map
                     (fun (n, (s, _)) -> (n, J.Float s))
                     (Span.self_times ())) );
              ("spans", Span.to_json ());
            ]));
    close_out oc
  end;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int res.attempted);
            ("failed", J.Int res.failed);
            ("metrics", J.Obj metrics);
          ]));
  exit (if correct then 0 else 1)
