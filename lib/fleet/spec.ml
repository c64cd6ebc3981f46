module Json = Gecko_obs.Json
module Scheme = Gecko_core.Scheme

type board_kind = Attack_rig | Bench

type t = {
  devices : int;
  attackers : int;
  seed : int;
  duration : float;
  area_m : float;
  shard_size : int;
  workload_mix : string list;
  scheme_mix : Scheme.t list;
  board_mix : board_kind list;
  freq_mhz : float;
  power_dbm : float;
  attacker_speed_mps : float;
  range_m : float;
  field_steps : int;
}

let scheme_slug = function
  | Scheme.Nvp -> "nvp"
  | Scheme.Ratchet -> "ratchet"
  | Scheme.Gecko_noprune -> "gecko-noprune"
  | Scheme.Gecko -> "gecko"

let scheme_of_slug = function
  | "nvp" -> Some Scheme.Nvp
  | "ratchet" -> Some Scheme.Ratchet
  | "gecko-noprune" | "noprune" -> Some Scheme.Gecko_noprune
  | "gecko" -> Some Scheme.Gecko
  | _ -> None

let board_slug = function Attack_rig -> "attack-rig" | Bench -> "bench"

let board_of_slug = function
  | "attack-rig" -> Some Attack_rig
  | "bench" -> Some Bench
  | _ -> None

let validate t =
  let fail fmt = Printf.ksprintf (fun m -> invalid_arg ("Fleet.Spec: " ^ m)) fmt in
  if t.devices < 1 then fail "devices must be >= 1 (got %d)" t.devices;
  if t.attackers < 0 then fail "attackers must be >= 0 (got %d)" t.attackers;
  (* Written as [lo <= v && v <= hi] so NaN fails it too; the upper
     bounds keep every campaign finite (a huge duration or area, or an
     infinite one, would simulate or draw waypoints without end). *)
  let within what ~lo ~hi unit v =
    if not (lo <= v && v <= hi) then
      fail "%s must be a finite number in [%g, %g] %s (got %g)" what lo hi
        unit v
  in
  within "duration" ~lo:1e-6 ~hi:10. "s" t.duration;
  within "area" ~lo:1. ~hi:1e4 "m" t.area_m;
  if t.shard_size < 1 then fail "shard size must be >= 1 (got %d)" t.shard_size;
  if t.workload_mix = [] then fail "workload mix is empty";
  if t.scheme_mix = [] then fail "scheme mix is empty";
  if t.board_mix = [] then fail "board mix is empty";
  within "frequency" ~lo:1e-3 ~hi:1e5 "MHz" t.freq_mhz;
  within "power" ~lo:(-100.) ~hi:100. "dBm" t.power_dbm;
  within "attacker speed" ~lo:0. ~hi:1e3 "m/s" t.attacker_speed_mps;
  within "range" ~lo:1e-3 ~hi:1e4 "m" t.range_m;
  if t.field_steps < 1 then fail "field steps must be >= 1 (got %d)" t.field_steps;
  List.iter
    (fun w ->
      match Gecko_workloads.Workload.find w with
      | _ -> ()
      | exception Not_found -> fail "unknown workload %S in mix" w)
    t.workload_mix;
  t

let make ?(attackers = 1) ?(duration = 0.05) ?(area_m = 30.)
    ?(shard_size = 32) ?(workload_mix = [ "crc16"; "crc32"; "bitcnt"; "fir" ])
    ?(scheme_mix = [ Scheme.Nvp; Scheme.Ratchet; Scheme.Gecko ])
    ?(board_mix = [ Attack_rig ]) ?(freq_mhz = 27.) ?(power_dbm = 30.)
    ?(attacker_speed_mps = 200.) ?(range_m = 6.) ?(field_steps = 16) ~devices
    ~seed () =
  validate
    {
      devices;
      attackers;
      seed;
      duration;
      area_m;
      shard_size;
      workload_mix;
      scheme_mix;
      board_mix;
      freq_mhz;
      power_dbm;
      attacker_speed_mps;
      range_m;
      field_steps;
    }

let shards t = (t.devices + t.shard_size - 1) / t.shard_size

let to_json t =
  Json.Assoc
    [
      ("devices", Json.Int t.devices);
      ("attackers", Json.Int t.attackers);
      ("seed", Json.Int t.seed);
      ("duration_s", Json.Float t.duration);
      ("area_m", Json.Float t.area_m);
      ("shard_size", Json.Int t.shard_size);
      ("workload_mix", Json.List (List.map (fun w -> Json.String w) t.workload_mix));
      ( "scheme_mix",
        Json.List (List.map (fun s -> Json.String (scheme_slug s)) t.scheme_mix)
      );
      ( "board_mix",
        Json.List (List.map (fun b -> Json.String (board_slug b)) t.board_mix) );
      ("freq_mhz", Json.Float t.freq_mhz);
      ("power_dbm", Json.Float t.power_dbm);
      ("attacker_speed_mps", Json.Float t.attacker_speed_mps);
      ("range_m", Json.Float t.range_m);
      ("field_steps", Json.Int t.field_steps);
    ]

let of_json j =
  let bad msg = invalid_arg ("Fleet.Spec.of_json: " ^ msg) in
  let field k =
    match Json.member k j with Some v -> v | None -> bad ("missing " ^ k)
  in
  let int k = match field k with Json.Int i -> i | _ -> bad (k ^ ": expected int") in
  let flt k =
    match Json.to_float_opt (field k) with
    | Some f -> f
    | None -> bad (k ^ ": expected number")
  in
  let strings k =
    match field k with
    | Json.List xs ->
        List.map
          (function Json.String s -> s | _ -> bad (k ^ ": expected strings"))
          xs
    | _ -> bad (k ^ ": expected a list")
  in
  let parse_with name parse s =
    match parse s with Some v -> v | None -> bad (name ^ ": unknown " ^ s)
  in
  validate
    {
      devices = int "devices";
      attackers = int "attackers";
      seed = int "seed";
      duration = flt "duration_s";
      area_m = flt "area_m";
      shard_size = int "shard_size";
      workload_mix = strings "workload_mix";
      scheme_mix =
        List.map (parse_with "scheme_mix" scheme_of_slug) (strings "scheme_mix");
      board_mix =
        List.map (parse_with "board_mix" board_of_slug) (strings "board_mix");
      freq_mhz = flt "freq_mhz";
      power_dbm = flt "power_dbm";
      attacker_speed_mps = flt "attacker_speed_mps";
      range_m = flt "range_m";
      field_steps = int "field_steps";
    }

let equal a b = Json.equal (to_json a) (to_json b)
