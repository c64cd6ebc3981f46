(* Tests for the benchmark's own helpers: the percentile helper, span self
   times, metric names, and the agreement of BENCHMARK.json with what the
   benchmark prints. *)

open Bench_kit
module Json = Gecko_obs.Json

let floats = Alcotest.(list (float 1e-12))

let test_median () =
  Alcotest.(check (float 0.)) "odd" 2. (Pctl.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "even" 2.5 (Pctl.median [ 4.; 1.; 3.; 2. ])

let ramp n = List.init n (fun i -> float_of_int (i + 1))

let test_tail () =
  let check n pct value =
    let t = Pctl.tail (List.rev (ramp n)) in
    Alcotest.(check int) (Printf.sprintf "n=%d samples" n) n t.Pctl.samples;
    Alcotest.(check (option (float 0.)))
      (Printf.sprintf "n=%d pct" n) pct t.Pctl.pct;
    match pct with
    | Some _ ->
        Alcotest.(check (float 0.))
          (Printf.sprintf "n=%d value" n) value t.Pctl.value
    | None -> Alcotest.(check bool) "no value" true (Float.is_nan t.Pctl.value)
  in
  (* Ten samples must lie beyond the reported percentile. *)
  check 19 None nan;
  check 20 (Some 50.) 10.;
  check 99 (Some 50.) 50.;
  check 100 (Some 90.) 90.;
  check 999 (Some 90.) 900.;
  check 1000 (Some 99.) 990.;
  check 10000 (Some 99.9) 9990.;
  let t = Pctl.tail (ramp 1000) in
  let beyond =
    List.length (List.filter (fun x -> x > t.Pctl.value) (ramp 1000))
  in
  Alcotest.(check bool) "at least ten beyond" true (beyond >= 10)

(* A recorder whose clock advances one second per reading. *)
let ticking () =
  let t = ref 0. in
  Recorder.create ~run:"test"
    ~clock:(fun () ->
      let v = !t in
      t := v +. 1.;
      v)
    ()

let self name spans =
  Option.value ~default:0. (Hashtbl.find_opt (Recorder.self_by_name spans) name)

let test_self_times () =
  let rc = ticking () in
  (* outer [0, 9]; a [1, 6] holds b [2, 3] and c [4, 5]; a second b [7, 8]. *)
  Recorder.span rc "outer" (fun () ->
      Recorder.span rc "a" (fun () ->
          Recorder.span rc "b" ignore;
          Recorder.span rc "c" ignore);
      Recorder.span rc "b" ignore);
  let spans = Recorder.spans rc in
  Alcotest.(check int) "spans" 5 (List.length spans);
  Alcotest.(check floats) "self times"
    [ 3.; 3.; 2.; 1. ]
    (List.map (fun n -> self n spans) [ "outer"; "a"; "b"; "c" ]);
  let total =
    List.fold_left (fun a (_, s) -> a +. s) 0. (Recorder.self_times spans)
  in
  Alcotest.(check (float 1e-12)) "sum of self times = root duration" 9. total;
  List.iter
    (fun (s : Recorder.span) ->
      Alcotest.(check string) "run id" "test" s.Recorder.run)
    spans

let test_split () =
  let rc = ticking () in
  Recorder.span rc "compile" ignore;
  (match Recorder.last rc with
  | Some id -> Recorder.split rc id [ ("p1", 0.25); ("p2", 0.5) ]
  | None -> Alcotest.fail "no span");
  let spans = Recorder.spans rc in
  Alcotest.(check floats) "attributed" [ 0.25; 0.5; 0.25 ]
    (List.map (fun n -> self n spans) [ "p1"; "p2"; "compile" ]);
  (* Parts that exceed their parent are scaled to fit it. *)
  let rc = ticking () in
  Recorder.span rc "compile" ignore;
  Option.iter
    (fun id -> Recorder.split rc id [ ("p1", 3.); ("p2", 1.) ])
    (Recorder.last rc);
  let spans = Recorder.spans rc in
  Alcotest.(check floats) "scaled" [ 0.75; 0.25; 0. ]
    (List.map (fun n -> self n spans) [ "p1"; "p2"; "compile" ])

let test_disabled () =
  let r = Recorder.span Recorder.disabled "x" (fun () -> 42) in
  Alcotest.(check int) "runs the function" 42 r;
  Alcotest.(check int) "records nothing" 0
    (List.length (Recorder.spans Recorder.disabled))

let all_metrics = Catalogue.end_to_end @ Catalogue.per_layer

let test_names () =
  List.iter
    (fun (m : Catalogue.metric) ->
      Alcotest.(check bool) ("valid name " ^ m.Catalogue.name) true
        (Catalogue.valid_name m.Catalogue.name))
    all_metrics;
  List.iter
    (fun n -> Alcotest.(check bool) ("invalid " ^ n) false (Catalogue.valid_name n))
    [ ""; "a b"; "x/y"; "_lead"; ".lead"; "ümlaut"; String.make 65 'a' ];
  let names =
    List.map (fun (m : Catalogue.metric) -> m.Catalogue.name) all_metrics
  in
  Alcotest.(check int) "names used once"
    (List.length names)
    (List.length (List.sort_uniq String.compare names))

let test_result_line () =
  let metrics = Catalogue.end_to_end in
  let values =
    List.mapi
      (fun i (m : Catalogue.metric) -> (m.Catalogue.name, float_of_int i +. 0.5))
      metrics
  in
  (match Emit.result_line ~metrics ~attempted:3 ~failed:0 values with
  | Error e -> Alcotest.fail e
  | Ok line -> (
      match Json.parse line with
      | Error e -> Alcotest.fail e
      | Ok j ->
          let keys = match j with Json.Assoc kv -> List.map fst kv | _ -> [] in
          Alcotest.(check (list string)) "keys"
            [ "correct"; "attempted"; "failed"; "metrics" ] keys;
          let printed =
            match Json.member "metrics" j with
            | Some (Json.Assoc kv) -> List.map fst kv
            | _ -> []
          in
          Alcotest.(check (list string)) "prints every catalogued metric"
            (List.map fst values) printed));
  let bad = Emit.result_line ~metrics ~attempted:1 ~failed:0 (List.tl values) in
  Alcotest.(check bool) "missing metric refused" true (Result.is_error bad);
  let nan_v = (fst (List.hd values), nan) :: List.tl values in
  Alcotest.(check bool) "nan refused" true
    (Result.is_error (Emit.result_line ~metrics ~attempted:1 ~failed:0 nan_v))

let benchmark_json () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.parse s with Ok j -> j | Error e -> Alcotest.fail e

let test_benchmark_json () =
  let j = benchmark_json () in
  let entries key =
    match Json.member key j with
    | Some (Json.List xs) -> xs
    | _ -> Alcotest.fail ("missing " ^ key)
  in
  let str k e =
    match Json.member k e with Some (Json.String s) -> s | _ -> Alcotest.fail k
  in
  let triples =
    List.map (fun e -> (str "name" e, str "unit" e, str "better" e))
  in
  let expected =
    List.map (fun (m : Catalogue.metric) ->
        ( m.Catalogue.name,
          m.Catalogue.unit_,
          Catalogue.string_of_better m.Catalogue.better ))
  in
  let t3 = Alcotest.(list (triple string string string)) in
  Alcotest.check t3 "end_to_end" (expected Catalogue.end_to_end)
    (triples (entries "end_to_end"));
  Alcotest.check t3 "per_layer" (expected Catalogue.per_layer)
    (triples (entries "per_layer"));
  Alcotest.(check (list (pair string string))) "workloads" Catalogue.workloads
    (List.map (fun e -> (str "name" e, str "why" e)) (entries "workloads"));
  List.iter
    (fun e ->
      match Json.member "bound" e with
      | Some (Json.Float b) ->
          Alcotest.(check bool) "bound in (0, 0.25]" true (b > 0. && b <= 0.25)
      | _ -> Alcotest.fail "end_to_end metric without a bound")
    (entries "end_to_end")

let () =
  Alcotest.run "bench_kit"
    [
      ( "pctl",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "tail percentile" `Quick test_tail;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "self time over nested spans" `Quick test_self_times;
          Alcotest.test_case "attributed children" `Quick test_split;
          Alcotest.test_case "disabled recorder" `Quick test_disabled;
        ] );
      ( "catalogue",
        [
          Alcotest.test_case "metric names" `Quick test_names;
          Alcotest.test_case "result line" `Quick test_result_line;
          Alcotest.test_case "BENCHMARK.json lists the printed metrics" `Quick
            test_benchmark_json;
        ] );
    ]
