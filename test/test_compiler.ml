open Gecko_isa
module B = Builder
module Core = Gecko_core

(* Sum an array into memory, with a WAR on the accumulator cell. *)
let sum_program () =
  let b = B.program "sum" in
  let data = B.space b "data" ~words:16 ~init:(Array.init 16 (fun i -> i + 1)) () in
  let acc = B.space b "acc" ~words:1 () in
  let coeff = B.space b "coeff" ~words:2 ~init:[| 3; 5 |] () in
  B.func b "main";
  B.block b "entry";
  B.li b Reg.r0 0;
  (* i *)
  B.li b Reg.r1 0;
  B.st b (B.at acc 0) Reg.r1;
  (* Prunable live-ins: a constant bound and a read-only coefficient. *)
  B.li b Reg.r5 16;
  B.ld b Reg.r6 (B.at coeff 0);
  B.block b "loop" ~loop_bound:16;
  B.ld b Reg.r2 (B.idx data Reg.r0);
  B.mul b Reg.r2 Reg.r2 (B.reg Reg.r6);
  B.ld b Reg.r3 (B.at acc 0);
  B.add b Reg.r3 Reg.r3 (B.reg Reg.r2);
  B.st b (B.at acc 0) Reg.r3;
  B.add b Reg.r0 Reg.r0 (B.imm 1);
  B.bin b Instr.Slt Reg.r4 Reg.r0 (B.reg Reg.r5);
  B.br b Instr.Nz Reg.r4 "loop" "done_";
  B.block b "done_";
  B.halt b;
  B.finish b

let test_formation () =
  let p, meta = Core.Pipeline.compile Core.Scheme.Gecko (sum_program ()) in
  Alcotest.(check bool)
    "has boundaries" true
    (Core.Pipeline.boundary_count p > 0);
  Alcotest.(check (list string)) "idempotent" [] (Core.Regions.violations p);
  Alcotest.(check bool)
    "has checkpoints" true
    (Core.Pipeline.checkpoint_store_count p > 0);
  Format.printf "stats: %a@." Core.Meta.pp_stats meta.Core.Meta.stats

let test_schemes_compile () =
  List.iter
    (fun s ->
      let p, _ = Core.Pipeline.compile s (sum_program ()) in
      match Cfg.validate p with
      | Ok () -> ()
      | Error e -> Alcotest.failf "scheme %s: %s" (Core.Scheme.to_string s) e)
    Core.Scheme.all

let test_pruning_happens () =
  let _, meta = Core.Pipeline.compile Core.Scheme.Gecko (sum_program ()) in
  let s = meta.Core.Meta.stats in
  Alcotest.(check bool) "some pruning" true (s.Core.Meta.pruned > 0)


(* ------------------------------------------------------------------ *)
(* Targeted pass-level tests                                           *)
(* ------------------------------------------------------------------ *)

module A = Gecko_analysis

let count_boundaries p = Core.Pipeline.boundary_count p

(* WAR: a load followed by an aliasing store needs a boundary between. *)
let test_war_cut () =
  let b = B.program "war" in
  let d = B.space b "d" ~words:4 () in
  B.func b "main";
  B.block b "e";
  B.ld b Reg.r0 (B.at d 0);
  B.add b Reg.r0 Reg.r0 (B.imm 1);
  B.st b (B.at d 0) Reg.r0;
  B.halt b;
  let p = B.finish b in
  let next_id = ref 0 in
  ignore (Core.Regions.form ~next_id p);
  Alcotest.(check (list string)) "no violations" [] (Core.Regions.violations p);
  let f = Cfg.find_func p "main" in
  let blk = Cfg.find_block f "e" in
  (* The block must contain a boundary between the ld and the st. *)
  let rec scan saw_ld saw_boundary = function
    | [] -> Alcotest.fail "no store found"
    | Instr.Ld _ :: rest -> scan true saw_boundary rest
    | Instr.Boundary _ :: rest -> scan saw_ld (saw_boundary || saw_ld) rest
    | Instr.St _ :: _ ->
        Alcotest.(check bool) "boundary before store" true saw_boundary
    | _ :: rest -> scan saw_ld saw_boundary rest
  in
  scan false false blk.Cfg.instrs

(* WARAW: st x; ld x; st x in one block needs no cut (must-alias). *)
let test_waraw_exempt () =
  let b = B.program "waraw" in
  let d = B.space b "d" ~words:4 () in
  B.func b "main";
  B.block b "e";
  B.li b Reg.r0 1;
  B.st b (B.at d 0) Reg.r0;
  B.ld b Reg.r1 (B.at d 0);
  B.add b Reg.r1 Reg.r1 (B.imm 1);
  B.st b (B.at d 0) Reg.r1;
  B.halt b;
  let p = B.finish b in
  let next_id = ref 0 in
  ignore (Core.Regions.form ~next_id p);
  (* Only the function-entry boundary. *)
  Alcotest.(check int) "single boundary" 1 (count_boundaries p);
  Alcotest.(check (list string)) "still idempotent" [] (Core.Regions.violations p)

(* A may-aliasing (dynamic) store does NOT exempt the pair. *)
let test_may_alias_not_exempt () =
  let b = B.program "maywar" in
  let d = B.space b "d" ~words:4 () in
  B.func b "main";
  B.block b "e";
  B.li b Reg.r0 1;
  B.li b Reg.r2 3;
  B.st b (B.idx d Reg.r2) Reg.r0;
  B.ld b Reg.r1 (B.at d 0);
  B.add b Reg.r1 Reg.r1 (B.imm 1);
  B.st b (B.at d 0) Reg.r1;
  B.halt b;
  let p = B.finish b in
  let next_id = ref 0 in
  ignore (Core.Regions.form ~next_id p);
  Alcotest.(check bool) "extra cut inserted" true (count_boundaries p >= 2);
  Alcotest.(check (list string)) "idempotent" [] (Core.Regions.violations p)

(* I/O instructions are bracketed by boundaries. *)
let test_io_bracketing () =
  let b = B.program "io" in
  B.func b "main";
  B.block b "e";
  B.li b Reg.r0 1;
  B.io_out b 0 Reg.r0;
  B.nop b;
  B.halt b;
  let p = B.finish b in
  let next_id = ref 0 in
  ignore (Core.Regions.form ~next_id p);
  let f = Cfg.find_func p "main" in
  let blk = Cfg.find_block f "e" in
  let arr = Array.of_list blk.Cfg.instrs in
  Array.iteri
    (fun i ins ->
      if Instr.is_io ins then begin
        Alcotest.(check bool) "boundary before io" true
          (i > 0 && (match arr.(i - 1) with Instr.Boundary _ -> true | _ -> false));
        Alcotest.(check bool) "boundary after io" true
          (i + 1 < Array.length arr
          && (match arr.(i + 1) with Instr.Boundary _ -> true | _ -> false))
      end)
    arr

(* WCET splitting cuts an oversized straight-line region. *)
let test_wcet_split () =
  let b = B.program "long" in
  B.func b "main";
  B.block b "e";
  for i = 0 to 199 do
    B.li b Reg.r0 i
  done;
  B.halt b;
  let p = B.finish b in
  let next_id = ref 0 in
  ignore (Core.Regions.form ~next_id p);
  let before = count_boundaries p in
  ignore (Core.Split.by_wcet ~next_id ~budget:50 ~ckpt_overhead:10 p);
  Alcotest.(check bool) "splits inserted" true (count_boundaries p > before);
  Alcotest.(check bool) "spans fit" true (Core.Split.max_span p <= 50)

(* Pruning: constants and read-only loads are sliced; loop-carried state
   is kept; loop-invariant values are reused. *)
let test_prune_decisions () =
  let _, meta = Core.Pipeline.compile Core.Scheme.Gecko (sum_program ()) in
  let s = meta.Core.Meta.stats in
  Alcotest.(check bool) "some slices" true (s.Core.Meta.recovery_blocks > 0);
  Alcotest.(check bool) "accounting" true
    (s.Core.Meta.kept + s.Core.Meta.pruned = s.Core.Meta.candidates)

(* Coloring: a loop header's checkpoints get a repair partner with
   alternating colours. *)
let test_coloring_alternates () =
  let p, meta = Core.Pipeline.compile Core.Scheme.Gecko (sum_program ()) in
  (match Core.Verify.coloring p meta with
  | Ok () -> ()
  | Error e -> Alcotest.failf "coloring: %s" (String.concat "; " e));
  (* The loop-carried registers must be stored at two alternating sites. *)
  let stores = Hashtbl.create 8 in
  Cfg.iter_instrs p (fun i ->
      match i with
      | Instr.Ckpt (r, c) ->
          let old = try Hashtbl.find stores (Reg.to_int r) with Not_found -> [] in
          Hashtbl.replace stores (Reg.to_int r) (c :: old)
      | _ -> ());
  let carried = Hashtbl.find stores 0 (* r0 = loop counter *) in
  Alcotest.(check bool) "two sites with both colours" true
    (List.mem 0 carried && List.mem 1 carried)

(* Recovery slices re-execute cleanly through the machine. *)
let test_budget_too_small () =
  match Core.Pipeline.compile ~budget_cycles:4 Core.Scheme.Gecko (sum_program ()) with
  | exception Invalid_argument _ -> ()
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected budget failure"

(* ------------------------------------------------------------------ *)
(* Compiled output pinned                                              *)
(* ------------------------------------------------------------------ *)

module W = Gecko_workloads.Workload

(* The five configurations of the benchmark catalogue. *)
let configs =
  [
    ("nvp", Core.Scheme.Nvp, Core.Mode.Sound);
    ("ratchet", Core.Scheme.Ratchet, Core.Mode.Sound);
    ("gecko_noprune", Core.Scheme.Gecko_noprune, Core.Mode.Sound);
    ("gecko", Core.Scheme.Gecko, Core.Mode.Sound);
    ("gecko_speculative", Core.Scheme.Gecko, Core.Mode.Speculative);
  ]

(* Every workload under every configuration, and Gen_prog seeds 0-49
   under both GECKO modes: (program, config, build). *)
let pinned_cases =
  List.concat_map
    (fun n -> List.map (fun c -> (n, c, (W.find n).W.build)) configs)
    W.names
  @ List.concat_map
      (fun seed ->
        List.filter_map
          (fun ((slug, _, _) as c) ->
            if slug = "gecko" || slug = "gecko_speculative" then
              Some
                ( Printf.sprintf "seed%d" seed,
                  c,
                  fun () -> Gen_prog.generate seed )
            else None)
          configs)
      (List.init 50 Fun.id)

(* (program, config, MD5 of the printed program, guards, kept, pruned),
   recorded from the compiler as of commit 2bdcc93, before colouring
   kept its analyses across repair rounds.  A change that moves a
   repair boundary, a checkpoint store or a slot colour changes a
   digest. *)
let pinned_output =
  [
    ("basicmath", "nvp", "36656dc079086f4ad03bfd58c6db3fe8", 0, 0, 0);
    ("basicmath", "ratchet", "16d070722b4eea50822bc8af9f1ec97a", 0, 96, 0);
    ("basicmath", "gecko_noprune", "66b16bba3179f39d9f4ca78c426d2394", 0, 16, 0);
    ("basicmath", "gecko", "072c99263928b1b8d8ca576f111869e9", 0, 17, 5);
    ("basicmath", "gecko_speculative", "b603c385c63f646b8631944c4eeb92b2", 0, 14, 4);
    ("bitcnt", "nvp", "8be5f9663d2a13344acfdceb1dd0eb86", 0, 0, 0);
    ("bitcnt", "ratchet", "7654797220e7d325943e524fd2e19752", 0, 32, 0);
    ("bitcnt", "gecko_noprune", "6d2532a9a201922b981465a307826ac1", 0, 8, 0);
    ("bitcnt", "gecko", "8f39b275a26781f3d386d76fc1fb4fe9", 0, 6, 2);
    ("bitcnt", "gecko_speculative", "8f39b275a26781f3d386d76fc1fb4fe9", 0, 6, 2);
    ("blink", "nvp", "91616f3b62dac8b0ee954583f19e28da", 0, 0, 0);
    ("blink", "ratchet", "83248b2d5c41fa855d1572146dbc8e31", 0, 64, 0);
    ("blink", "gecko_noprune", "90c1ac1289727b72e04150c7c51982de", 0, 5, 0);
    ("blink", "gecko", "174b4acdac4dab3cb2543d40b18c244a", 0, 2, 3);
    ("blink", "gecko_speculative", "47d1888f22a6c11014efc006f0e9183a", 0, 2, 4);
    ("crc16", "nvp", "261a1c546668a1341ec7f29948a467d9", 0, 0, 0);
    ("crc16", "ratchet", "f7a9b78b8afcc3c897e233f882d3e4a8", 0, 32, 0);
    ("crc16", "gecko_noprune", "0c61df8d7101103f96ce19747e28ec02", 0, 8, 0);
    ("crc16", "gecko", "f0bf92d36864ed343655dac024f88530", 0, 4, 4);
    ("crc16", "gecko_speculative", "f0bf92d36864ed343655dac024f88530", 0, 4, 4);
    ("crc32", "nvp", "4aba87bda7736d213cec5fa1aec557cb", 0, 0, 0);
    ("crc32", "ratchet", "45c8d4fc6106948fee23bf4b58859f5b", 0, 32, 0);
    ("crc32", "gecko_noprune", "031cf0ae8766dc7d8d08e4bd79cb0311", 0, 8, 0);
    ("crc32", "gecko", "f3a43b789b0522679a79377aaf134ee2", 0, 4, 4);
    ("crc32", "gecko_speculative", "f3a43b789b0522679a79377aaf134ee2", 0, 4, 4);
    ("dhrystone", "nvp", "9e1c3b20f65bebf1427f9b45b482478e", 0, 0, 0);
    ("dhrystone", "ratchet", "7564f40afc29744c900216e810f53b72", 0, 192, 0);
    ("dhrystone", "gecko_noprune", "ae1a78f25155c3bc39b58c4a80c74869", 0, 56, 0);
    ("dhrystone", "gecko", "d8d0566551d37892727391c56c7de52f", 0, 45, 14);
    ("dhrystone", "gecko_speculative", "e2bfa5178e4cb5bdb087f4dd6940060f", 5, 23, 36);
    ("dijkstra", "nvp", "cd3e3f97fce4d166405fa39cf0c1d892", 0, 0, 0);
    ("dijkstra", "ratchet", "57b8bf805ad9c5e88f9a34f6026ab4a4", 0, 128, 0);
    ("dijkstra", "gecko_noprune", "8e135cbe52d4d7fff0ada540727f5fa3", 0, 45, 0);
    ("dijkstra", "gecko", "6ec0405d79e3136c1253b0b7f1838d10", 0, 39, 14);
    ("dijkstra", "gecko_speculative", "dd40126f36f33d1cc6a5ed7211a08d12", 0, 24, 22);
    ("fft", "nvp", "8be3044d9be53775600a0a6d1ae025a6", 0, 0, 0);
    ("fft", "ratchet", "7a95a562ea1eab4389d71f2f27c069aa", 0, 464, 0);
    ("fft", "gecko_noprune", "886f8d9e544afcbf37c7ea1cab061f65", 0, 82, 0);
    ("fft", "gecko", "45ba5c04d8df6d4d8674f8b10feded27", 0, 70, 22);
    ("fft", "gecko_speculative", "400bde09410eb3f07ff486ae08bd6c2f", 0, 64, 28);
    ("fir", "nvp", "4122f532babdac7834cbbfee6d4f1fc1", 0, 0, 0);
    ("fir", "ratchet", "28b3cefabd5ba94c9b220598124b7168", 0, 32, 0);
    ("fir", "gecko_noprune", "deb9ee7d76bccd6c92ed5a1e2c70517f", 0, 4, 0);
    ("fir", "gecko", "a5bfcc0315333ee3005e2a2e03607bce", 0, 2, 2);
    ("fir", "gecko_speculative", "a5bfcc0315333ee3005e2a2e03607bce", 0, 2, 2);
    ("qsort", "nvp", "91e5abb667ad204a43b5a1a3166bea1f", 0, 0, 0);
    ("qsort", "ratchet", "daae13892d47eb267327dd3d649a8a04", 0, 96, 0);
    ("qsort", "gecko_noprune", "6eab357a604454bd434e0e9960fe1e96", 0, 58, 0);
    ("qsort", "gecko", "297f711ebeccec88948206b072c6f367", 0, 52, 6);
    ("qsort", "gecko_speculative", "687a3223fc080fd1fd7be246be5e943d", 0, 32, 26);
    ("stringsearch", "nvp", "e77abeb390085caef0e3027d35148162", 0, 0, 0);
    ("stringsearch", "ratchet", "84dc220a67568afa767e49a304774fec", 0, 80, 0);
    ("stringsearch", "gecko_noprune", "0054520cee65fd1124fdb7b35124c523", 0, 8, 0);
    ("stringsearch", "gecko", "0054520cee65fd1124fdb7b35124c523", 0, 8, 0);
    ("stringsearch", "gecko_speculative", "0054520cee65fd1124fdb7b35124c523", 0, 8, 0);
    ("seed0", "gecko", "c4029ef3e5593d80738dbe6a2fa734cf", 0, 16, 21);
    ("seed0", "gecko_speculative", "21b7a2ac308972307a63e9c82130d5dd", 0, 14, 23);
    ("seed1", "gecko", "517d43dec4265797749dc672ce2c598d", 0, 0, 5);
    ("seed1", "gecko_speculative", "fc64fc8180f3154e1cd132154d60b850", 0, 0, 3);
    ("seed2", "gecko", "3e7cfc4f92b150ff73e4ec00d1529a80", 0, 10, 19);
    ("seed2", "gecko_speculative", "665d2a1d7e224c66880fc3885f5770ab", 0, 8, 21);
    ("seed3", "gecko", "d9d8ac530c1ad70871a006e608cc37d1", 0, 7, 11);
    ("seed3", "gecko_speculative", "24657f2f0a8ec7f728a8226927f8dc06", 0, 7, 3);
    ("seed4", "gecko", "9368bce5beba99632d6d44048c8a28c4", 0, 9, 14);
    ("seed4", "gecko_speculative", "13e05328a9458ffae9a1050c67425868", 0, 7, 16);
    ("seed5", "gecko", "cd576a170a8cbc557c5905f35d06830b", 0, 13, 64);
    ("seed5", "gecko_speculative", "a163333930507de8cc0ed31f63c56888", 0, 12, 61);
    ("seed6", "gecko", "064315b0fd90a4e9bcbe249b2118eaaa", 0, 1, 11);
    ("seed6", "gecko_speculative", "2eb47c46fe9aa2bcc8593c09c048e2dc", 0, 1, 8);
    ("seed7", "gecko", "c886ee0d5d3e8ab29fcc626261f4f648", 0, 16, 39);
    ("seed7", "gecko_speculative", "3f6ad49ed0b0fe35992496a5f404d019", 0, 14, 36);
    ("seed8", "gecko", "de4635a1676bc7dc863d1c09c8b4efd1", 0, 4, 6);
    ("seed8", "gecko_speculative", "de4635a1676bc7dc863d1c09c8b4efd1", 0, 4, 6);
    ("seed9", "gecko", "b8d817d6bd80fdabc2e789f7e07403a7", 0, 4, 28);
    ("seed9", "gecko_speculative", "f11c8fa32ef6838a7fc3a8608935061d", 0, 2, 18);
    ("seed10", "gecko", "0c16e8f4cf92c81f76f1cd3a92b1129a", 0, 5, 16);
    ("seed10", "gecko_speculative", "6515a4ee2f7e705aa625f48b5280c821", 0, 4, 15);
    ("seed11", "gecko", "4b3f5cd5f7bf302b08c770fae1632dec", 0, 1, 1);
    ("seed11", "gecko_speculative", "4b3f5cd5f7bf302b08c770fae1632dec", 0, 1, 1);
    ("seed12", "gecko", "1e5a7c2c2b66a4c6d7d2099567f84f9d", 0, 19, 32);
    ("seed12", "gecko_speculative", "451b07f1f6c32e8d3ced5488d135af22", 0, 15, 36);
    ("seed13", "gecko", "b5329b1a981e7f988e91c93ea86d82c2", 0, 18, 36);
    ("seed13", "gecko_speculative", "18a3f256eb5167a122b75440409881be", 0, 11, 29);
    ("seed14", "gecko", "5b6fa7e13cab91c702d56aa4f666bee2", 0, 9, 3);
    ("seed14", "gecko_speculative", "5b6fa7e13cab91c702d56aa4f666bee2", 0, 9, 3);
    ("seed15", "gecko", "184efe75941b0d83de89783ca0d45719", 0, 6, 6);
    ("seed15", "gecko_speculative", "184efe75941b0d83de89783ca0d45719", 0, 6, 6);
    ("seed16", "gecko", "eab35f19657a40008af14c57caa8aecb", 0, 32, 49);
    ("seed16", "gecko_speculative", "47a7645828fd50d51d907d40fe96703a", 0, 28, 53);
    ("seed17", "gecko", "e9b9c26885a4e491ee42908a113b1398", 0, 0, 0);
    ("seed17", "gecko_speculative", "e9b9c26885a4e491ee42908a113b1398", 0, 0, 0);
    ("seed18", "gecko", "7f40d523a5ece02f0ed6421446cb32c3", 0, 10, 10);
    ("seed18", "gecko_speculative", "b26aa7f41312d8a72e2ae457561ac26e", 0, 9, 5);
    ("seed19", "gecko", "a40556890b33dc4f5f59d5ae645097b7", 0, 13, 38);
    ("seed19", "gecko_speculative", "75ca31e7f9861a0d5e0d827824ef54fe", 0, 8, 25);
    ("seed20", "gecko", "7c74f293dc2dc20447cd9f2dd564b058", 0, 38, 72);
    ("seed20", "gecko_speculative", "d5ad829c63c980bf22d9139e00cf8076", 0, 22, 89);
    ("seed21", "gecko", "bedf956dc6444edd155f4f5fd1afc7dd", 0, 18, 40);
    ("seed21", "gecko_speculative", "9d667e0ed29a9ec0850952158aa64a32", 0, 12, 33);
    ("seed22", "gecko", "161b90da5a6d73c12ee84dccf708fa83", 0, 11, 4);
    ("seed22", "gecko_speculative", "161b90da5a6d73c12ee84dccf708fa83", 0, 11, 4);
    ("seed23", "gecko", "1a194b4a80701be334882fa864f154c9", 0, 5, 15);
    ("seed23", "gecko_speculative", "562452f3d1189c89bb78c6f71105948a", 0, 4, 9);
    ("seed24", "gecko", "0bde96deba4598f7e2b6fbf53c51a3a9", 0, 12, 24);
    ("seed24", "gecko_speculative", "cb8f144344b38c5cfc2f4ce6da07818e", 0, 7, 24);
    ("seed25", "gecko", "f23838f4db747da39f16cdb73e268a3f", 0, 15, 34);
    ("seed25", "gecko_speculative", "2c758064ed36b095b6dad8aa2c094e3c", 0, 15, 42);
    ("seed26", "gecko", "771536862eac4e1ec7b700f7cc2e53c2", 0, 3, 17);
    ("seed26", "gecko_speculative", "2f9662d6f16ddcb7dfac3d1250f5dfc8", 0, 3, 15);
    ("seed27", "gecko", "221f3ade7b00c624ebbbc4b5b59a4f81", 0, 10, 12);
    ("seed27", "gecko_speculative", "3db0d6f871916b717a7c909cef984c8c", 0, 7, 10);
    ("seed28", "gecko", "472bfb68762ea1aef51245f94c0573ac", 0, 18, 37);
    ("seed28", "gecko_speculative", "35016d294e335d7f5c5682b99b47862c", 0, 14, 41);
    ("seed29", "gecko", "005ac08c3282ffa27bdd5e9c6bdab991", 0, 41, 68);
    ("seed29", "gecko_speculative", "098b2f3c3d034947775611ee66b7ea77", 0, 25, 75);
    ("seed30", "gecko", "c150d8ed0e28478ce7e9bf67e3c42c0f", 0, 11, 7);
    ("seed30", "gecko_speculative", "b5f8c6b6957812bba0dacdbde588e7d4", 0, 10, 2);
    ("seed31", "gecko", "1ebb31fbade77c9d7e60cd17cd186ed6", 0, 5, 13);
    ("seed31", "gecko_speculative", "cc2264ea35ee0d783bb77c3822a9d8b2", 0, 4, 14);
    ("seed32", "gecko", "bb832b659733ed4bba1ac8099bde3c9e", 0, 17, 25);
    ("seed32", "gecko_speculative", "1a7760262e9dd22fc49683fb3a5ddc50", 0, 11, 27);
    ("seed33", "gecko", "9fd49d76a93b0204c83ed6801e5e3649", 0, 16, 33);
    ("seed33", "gecko_speculative", "684eca48e29c0267d8d6b07080da3d95", 0, 10, 33);
    ("seed34", "gecko", "ba3c7dcd2d9a083e4112483dfed8dbcc", 0, 16, 11);
    ("seed34", "gecko_speculative", "93d3679e7d52d5446d42a18bf658bbd6", 0, 10, 11);
    ("seed35", "gecko", "2b8ea58e2f84d4f97f33d42e743fee9f", 0, 15, 51);
    ("seed35", "gecko_speculative", "077ec77428c9376b110a9c65cd96e13e", 0, 11, 31);
    ("seed36", "gecko", "7c75c93d8727ab0b486105c809872389", 0, 25, 24);
    ("seed36", "gecko_speculative", "67c752a7296c9e708582a6cc46ad07bc", 0, 21, 32);
    ("seed37", "gecko", "cd5d70be7552fb7d9d1625ebc04a6620", 0, 5, 12);
    ("seed37", "gecko_speculative", "7d787f1716f15a4968c77034b46a073d", 0, 5, 4);
    ("seed38", "gecko", "fb6610210e6bb68d7a4e86bda268c99e", 0, 34, 20);
    ("seed38", "gecko_speculative", "ea53240013b01d000d1e5502611563d5", 0, 28, 30);
    ("seed39", "gecko", "67ba4c315fbf7fc7c75c49439aadaeaf", 0, 4, 4);
    ("seed39", "gecko_speculative", "67ba4c315fbf7fc7c75c49439aadaeaf", 0, 4, 4);
    ("seed40", "gecko", "9473331816a2b9140d2249fb88e71468", 0, 3, 5);
    ("seed40", "gecko_speculative", "7b9ed341c771a57024c9a7b944559e3a", 0, 2, 0);
    ("seed41", "gecko", "60ee565115119edaedf30f17eb4569df", 0, 9, 22);
    ("seed41", "gecko_speculative", "e7130e24b01db220c84108879f21a277", 0, 6, 9);
    ("seed42", "gecko", "2ee7efdedff86411a803c19dc6bb9c1f", 0, 22, 37);
    ("seed42", "gecko_speculative", "64356fb863d58da1142d44f7247e0d78", 0, 16, 36);
    ("seed43", "gecko", "07ce1d0cd6635fa977496e0309192337", 0, 0, 6);
    ("seed43", "gecko_speculative", "760f07fe53ba7447e313d68750193170", 0, 0, 4);
    ("seed44", "gecko", "35e968dac3183b14411c5bbc039304b4", 0, 16, 18);
    ("seed44", "gecko_speculative", "8a4d0a7c4e48953966abf3bd6112641c", 0, 12, 22);
    ("seed45", "gecko", "2537a80e9968e2639d3c358632cf39bf", 0, 18, 39);
    ("seed45", "gecko_speculative", "06f8176a7c14e33723dcf97fe76913c9", 0, 13, 31);
    ("seed46", "gecko", "14702e41e09b4166e964faec9f569767", 0, 22, 26);
    ("seed46", "gecko_speculative", "20a6f2b496e7309fd9bd8b75aa50a9dc", 0, 13, 19);
    ("seed47", "gecko", "156aabcafcd8f345b84fc42feb1753f6", 0, 10, 18);
    ("seed47", "gecko_speculative", "156aabcafcd8f345b84fc42feb1753f6", 0, 10, 18);
    ("seed48", "gecko", "a6acf74c555bcede6150e4f4fadcca1b", 0, 3, 13);
    ("seed48", "gecko_speculative", "ee1e79bdbbd6802fc3f6d661bcd7f37e", 0, 3, 10);
    ("seed49", "gecko", "1e13df15cfc46cd0bb1f4e8545b018bc", 0, 24, 31);
    ("seed49", "gecko_speculative", "575c7bf73de9afbb17e1ab4826a670be", 0, 20, 40);
  ]

let test_output_pinned () =
  Alcotest.(check int)
    "every case pinned" (List.length pinned_cases) (List.length pinned_output);
  List.iter
    (fun (name, (slug, scheme, mode), build) ->
      let p, meta = Core.Pipeline.compile ~mode scheme (build ()) in
      let s = meta.Core.Meta.stats in
      let got =
        ( Digest.to_hex (Digest.string (Format.asprintf "%a" Cfg.pp p)),
          List.length meta.Core.Meta.guards,
          s.Core.Meta.kept,
          s.Core.Meta.pruned )
      in
      let want =
        match
          List.find_opt
            (fun (n, c, _, _, _, _) -> n = name && c = slug)
            pinned_output
        with
        | Some (_, _, digest, guards, kept, pruned) ->
            (digest, guards, kept, pruned)
        | None -> Alcotest.failf "%s/%s is not pinned" name slug
      in
      let show (d, g, k, pr) =
        Printf.sprintf "%s guards=%d kept=%d pruned=%d" d g k pr
      in
      Alcotest.(check string) (name ^ "/" ^ slug) (show want) (show got))
    pinned_cases

(* The benchmark's steady set-up: every workload under NVP, Ratchet and
   both GECKO modes.  Its 22 GECKO compiles take 157 colouring rounds —
   the repair sequence of the pinned output — and the 44 compiles stay
   within an allocation budget (23.2M minor words when every round
   recomputed its analyses from scratch, 11.8M now). *)
let test_coloring_rounds_and_words () =
  let steady =
    List.filter (fun (slug, _, _) -> slug <> "gecko_noprune") configs
  in
  let progs = List.map (fun n -> (W.find n).W.build ()) W.names in
  let rounds = ref 0. in
  let w0 = Gc.minor_words () in
  List.iter
    (fun prog ->
      List.iter
        (fun (_, scheme, mode) ->
          let metrics = Gecko_obs.Metrics.create () in
          ignore (Core.Pipeline.compile ~mode ~metrics scheme prog);
          (* Unset (NaN) for the schemes that do not colour. *)
          let r =
            Gecko_obs.Metrics.gauge_value
              (Gecko_obs.Metrics.gauge metrics "pipeline.coloring.rounds")
          in
          if scheme = Core.Scheme.Gecko then rounds := !rounds +. r)
        steady)
    progs;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "colouring rounds" 157 (int_of_float !rounds);
  if words > 16.0e6 then
    Alcotest.failf "44 compiles allocated %.1fM minor words, budget 16.0M"
      (words /. 1e6)

let () =
  Alcotest.run "compiler"
    [
      ( "pipeline",
        [
          Alcotest.test_case "formation" `Quick test_formation;
          Alcotest.test_case "all schemes" `Quick test_schemes_compile;
          Alcotest.test_case "pruning" `Quick test_pruning_happens;
        ] );
      ( "regions",
        [
          Alcotest.test_case "WAR cut" `Quick test_war_cut;
          Alcotest.test_case "WARAW exemption" `Quick test_waraw_exempt;
          Alcotest.test_case "may-alias not exempt" `Quick test_may_alias_not_exempt;
          Alcotest.test_case "I/O bracketing" `Quick test_io_bracketing;
        ] );
      ("wcet", [ Alcotest.test_case "splitting" `Quick test_wcet_split;
                 Alcotest.test_case "budget too small" `Quick test_budget_too_small ]);
      ( "checkpointing",
        [
          Alcotest.test_case "prune decisions" `Quick test_prune_decisions;
          Alcotest.test_case "coloring alternates" `Quick test_coloring_alternates;
        ] );
      ( "output",
        [
          Alcotest.test_case "pinned digests" `Quick test_output_pinned;
          Alcotest.test_case "colouring rounds and words" `Quick
            test_coloring_rounds_and_words;
        ] );
    ]
