(* Validator for the CLI smoke artifacts produced by the dune rules in
   this directory: the trace, metrics and fuzz-report JSON files written
   by `gecko run`/`gecko fuzz` must parse and carry the expected keys.
   Exits non-zero (failing the @runtest alias) on any violation. *)

module Json = Gecko_obs.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> s
  | exception Sys_error m -> fail "cannot read %s: %s" path m

let parse path =
  match Json.parse (read_file path) with
  | Ok j -> j
  | Error m -> fail "%s: invalid JSON: %s" path m

let need path j key =
  match Json.member key j with
  | Some v -> v
  | None -> fail "%s: missing key %S" path key

let need_list path j key =
  match Json.to_list_opt (need path j key) with
  | Some l -> l
  | None -> fail "%s: key %S is not a list" path key

let check_trace path =
  let j = parse path in
  (* Chrome trace-event format: {"traceEvents": [...], "otherData": {...}}. *)
  (match need_list path j "traceEvents" with
  | e :: _ -> ignore (need path e "ph")
  | [] -> fail "%s: trace is empty" path);
  let other = need path j "otherData" in
  match Json.member "dropped" other with
  | Some (Json.Int d) when d >= 0 -> ()
  | _ -> fail "%s: otherData.dropped missing or negative" path

let check_metrics path =
  let j = parse path in
  match need path j "counters" with
  | Json.Assoc ((_ :: _) as counters) ->
      if not (List.mem_assoc "machine.completions" counters) then
        fail "%s: counters lack machine.completions" path
  | _ -> fail "%s: counters missing or empty" path

let check_fuzz path =
  let j = parse path in
  (match Json.to_string_opt (need path j "schema") with
  | Some "gecko.fuzz/1" -> ()
  | _ -> fail "%s: bad schema tag" path);
  ignore (need path j "workload");
  ignore (need path j "scheme");
  let explore = need path j "explore" in
  List.iter
    (fun k -> ignore (need path explore k))
    [ "sites_total"; "explored"; "event_sites_covered"; "baseline_ok"; "failures" ];
  let fuzz = need path j "fuzz" in
  List.iter (fun k -> ignore (need path fuzz k)) [ "evals"; "best_score" ];
  ignore (need_list path j "repros");
  match Json.to_float_opt (need path j "failures_total") with
  | Some 0. -> ()
  | Some n -> fail "%s: smoke fuzz found %g failures on a clean scheme" path n
  | None -> fail "%s: failures_total is not a number" path

let check_fleet path =
  let j = parse path in
  (match Json.to_string_opt (need path j "schema") with
  | Some "gecko.fleet-report/1" -> ()
  | _ -> fail "%s: bad schema tag" path);
  let spec = need path j "spec" in
  let total = need path j "total" in
  let int_of k v =
    match Json.to_float_opt (need path v k) with
    | Some f -> int_of_float f
    | None -> fail "%s: %s is not a number" path k
  in
  let devices = int_of "devices" spec in
  if int_of "devices" total <> devices then
    fail "%s: total.devices disagrees with spec.devices" path;
  if int_of "instructions" total <= 0 then
    fail "%s: fleet simulated no instructions" path;
  List.iter
    (fun k ->
      match need path j k with
      | Json.Assoc (_ :: _) -> ()
      | _ -> fail "%s: %s missing or empty" path k)
    [ "per_scheme"; "per_workload"; "metrics" ]

let check_run_log path =
  let s = read_file path in
  if String.length s = 0 then fail "%s: empty CLI output" path

let check_telemetry path =
  let lines =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> fail "%s: empty telemetry stream" path
  | header :: rest ->
      let h =
        match Json.parse header with
        | Ok j -> j
        | Error m -> fail "%s: invalid header JSON: %s" path m
      in
      (match Json.to_string_opt (need path h "schema") with
      | Some "gecko.fleet-telemetry/1" -> ()
      | _ -> fail "%s: bad stream schema tag" path);
      ignore (need path h "spec");
      ignore (need path h "config");
      let records =
        List.map
          (fun l ->
            match Json.parse l with
            | Ok j -> j
            | Error m -> fail "%s: invalid stream record: %s" path m)
          rest
      in
      if not (List.exists (fun j -> Json.member "final" j <> None) records)
      then fail "%s: stream has no final record" path;
      if
        not
          (List.exists
             (fun j -> Json.member "nondeterministic" j <> None)
             records)
      then fail "%s: stream has no nondeterministic record" path;
      List.iter
        (fun j ->
          match Json.member "shard" j with
          | Some _ -> ignore (need path j "cumulative")
          | None -> ())
        records

(* [path] holds every line of [msgs]. *)
let check_lines path msgs =
  let lines = String.split_on_char '\n' (read_file path) in
  List.iter
    (fun msg ->
      if not (List.mem msg lines) then fail "%s: lacks the line %S" path msg)
    msgs

(* Each rejected GECKO_JOBS value gets one error line naming the
   variable and the value. *)
let check_jobs_env path =
  check_lines path
    (List.map
       (Printf.sprintf "gecko: GECKO_JOBS=%S: expected an integer >= 1")
       [ "abc"; "0"; "-2" ])

(* The bench harness rejects an unknown fidelity by name. *)
let check_bench_env path =
  check_lines path
    [ {|gecko-bench: GECKO_BENCH="bogus": expected "quick" or "full"|} ]

(* Each rejected float flag gets one error line naming it and its
   value. *)
let check_run_float path =
  check_lines path
    [
      "gecko run: --time: expected a finite number in [1e-06, 3600] (got nan)";
      "gecko run: --attack: expected a finite number in [0.001, 100000] (got \
       nan)";
    ]

let check_fleet_spec path =
  let spec = "gecko fleet: Fleet.Spec: " in
  check_lines path
    [
      spec ^ "duration must be a finite number in [1e-06, 10] s (got nan)";
      spec ^ "duration must be a finite number in [1e-06, 10] s (got 1e+09)";
      spec ^ "area must be a finite number in [1, 10000] m (got inf)";
      spec ^ "power must be a finite number in [-100, 100] dBm (got nan)";
    ]

let check_flight path =
  let j = parse path in
  (match Json.to_string_opt (need path j "schema") with
  | Some "gecko.flight/1" -> ()
  | _ -> fail "%s: bad flight schema tag" path);
  match need_list path j "events" with
  | [] -> fail "%s: flight dump is empty" path
  | e :: _ -> List.iter (fun k -> ignore (need path e k)) [ "t"; "ev"; "v" ]

let () =
  match Array.to_list Sys.argv with
  | [ _; trace; metrics; fuzz; runlog; fleet; heartbeat; telemetry; flight;
      replaylog; jobs_env; bench_env; run_float; fleet_spec ] ->
      check_trace trace;
      check_metrics metrics;
      check_fuzz fuzz;
      check_run_log runlog;
      check_fleet fleet;
      check_run_log heartbeat;
      check_telemetry telemetry;
      check_flight flight;
      check_run_log replaylog;
      check_jobs_env jobs_env;
      check_bench_env bench_env;
      check_run_float run_float;
      check_fleet_spec fleet_spec;
      print_endline "cli smoke artifacts ok"
  | _ ->
      fail
        "usage: cli_smoke_check TRACE METRICS FUZZ RUNLOG FLEET HEARTBEAT \
         TELEMETRY FLIGHT REPLAYLOG JOBS_ENV_ERR BENCH_ENV_ERR RUN_FLOAT_ERR \
         FLEET_SPEC_ERR"
