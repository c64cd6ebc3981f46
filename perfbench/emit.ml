(* The result line: the last line of standard output, one JSON object with
   exactly the keys correct, attempted, failed and metrics. *)

let number v = Printf.sprintf "%.17g" v

let result_line ~(metrics : Catalogue.metric list) ~attempted ~failed values =
  let names = List.map (fun (mt : Catalogue.metric) -> mt.name) metrics in
  let given = List.map fst values in
  let missing = List.filter (fun n -> not (List.mem n given)) names in
  let extra = List.filter (fun n -> not (List.mem n names)) given in
  let dup =
    List.length (List.sort_uniq String.compare given) <> List.length given
  in
  let bad =
    List.filter (fun (_, v) -> not (Float.is_finite v)) values |> List.map fst
  in
  if missing <> [] || extra <> [] || dup || bad <> [] then
    Error
      (Printf.sprintf
         "metrics do not match the catalogue: missing [%s] extra [%s]%s \
          non-finite [%s]"
         (String.concat " " missing) (String.concat " " extra)
         (if dup then " duplicated names" else "")
         (String.concat " " bad))
  else
    let metric (mt : Catalogue.metric) =
      Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name
        (number (List.assoc mt.name values))
        mt.unit_
    in
    Ok
      (Printf.sprintf
         "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
         (failed = 0 && attempted > 0)
         attempted failed
         (String.concat ", " (List.map metric metrics)))
