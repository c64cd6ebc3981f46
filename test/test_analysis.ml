(* Unit tests for the dataflow analyses on hand-built CFGs. *)

open Gecko_isa
module A = Gecko_analysis
module B = Builder

(* A diamond with a loop:
   entry -> hdr -> (then | else) -> join -> hdr ... -> exit *)
let diamond_loop () =
  let b = B.program "dl" in
  let d = B.space b "d" ~words:8 () in
  B.func b "main";
  B.block b "entry";
  B.li b Reg.r0 0;
  B.li b Reg.r1 5;
  B.block b "hdr" ~loop_bound:5;
  B.bin b Instr.And Reg.r2 Reg.r0 (B.imm 1);
  B.br b Instr.Nz Reg.r2 "then_" "else_";
  B.block b "then_";
  B.st b (B.at d 0) Reg.r0;
  B.jmp b "join";
  B.block b "else_";
  B.st b (B.at d 1) Reg.r1;
  B.block b "join";
  B.add b Reg.r0 Reg.r0 (B.imm 1);
  B.bin b Instr.Slt Reg.r2 Reg.r0 (B.reg Reg.r1);
  B.br b Instr.Nz Reg.r2 "hdr" "exit_";
  B.block b "exit_";
  B.halt b;
  B.finish b

let graph_of p = A.Fgraph.of_func (Cfg.find_func p "main")

let test_dominators () =
  let g = graph_of (diamond_loop ()) in
  let dom = A.Dom.compute g in
  let id l = A.Fgraph.block_id g l in
  Alcotest.(check bool) "entry dom all" true (A.Dom.dominates dom (id "entry") (id "exit_"));
  Alcotest.(check bool) "hdr dom join" true (A.Dom.dominates dom (id "hdr") (id "join"));
  Alcotest.(check bool) "then not dom join" false
    (A.Dom.dominates dom (id "then_") (id "join"));
  Alcotest.(check int) "idom of join is hdr" (id "hdr") (A.Dom.idom dom (id "join"))

let test_loops () =
  let g = graph_of (diamond_loop ()) in
  let dom = A.Dom.compute g in
  let loops = A.Loops.compute g dom in
  let id l = A.Fgraph.block_id g l in
  Alcotest.(check (list int)) "headers" [ id "hdr" ] (A.Loops.headers loops);
  let l = List.hd (A.Loops.loops loops) in
  Alcotest.(check bool) "join in body" true (List.mem (id "join") l.A.Loops.body);
  Alcotest.(check bool) "exit not in body" false (List.mem (id "exit_") l.A.Loops.body)

let test_liveness () =
  let g = graph_of (diamond_loop ()) in
  let live = A.Live.compute g in
  let id l = A.Fgraph.block_id g l in
  (* r1 (the bound) is live at the loop header, r2 (the scratch) is not. *)
  Alcotest.(check bool) "r1 live at hdr" true
    (Reg.Set.mem Reg.r1 (A.Live.live_in live (id "hdr")));
  Alcotest.(check bool) "r2 dead at hdr" false
    (Reg.Set.mem Reg.r2 (A.Live.live_in live (id "hdr")))

let test_reaching () =
  let g = graph_of (diamond_loop ()) in
  let r = A.Reaching.compute g in
  let id l = A.Fgraph.block_id g l in
  (* At the header, r0 has two reaching defs (entry li, join increment). *)
  let defs = A.Reaching.reaching_at r Reg.r0 { A.Fgraph.blk = id "hdr"; idx = 0 } in
  Alcotest.(check int) "two defs of r0" 2 (List.length defs);
  Alcotest.(check bool) "no unique def" true
    (A.Reaching.unique_at r Reg.r0 { A.Fgraph.blk = id "hdr"; idx = 0 } = None);
  (* r1 has a unique def everywhere. *)
  Alcotest.(check bool) "unique def of r1" true
    (A.Reaching.unique_at r Reg.r1 { A.Fgraph.blk = id "exit_"; idx = 0 } <> None)

let test_alias () =
  let s1 = { Instr.space_name = "a"; space_id = 0; space_words = 8 } in
  let s2 = { Instr.space_name = "b"; space_id = 1; space_words = 8 } in
  let m ?(s = s1) d = { Instr.space = s; disp = d } in
  Alcotest.(check bool) "same const" true
    (A.Alias.may_alias (m (Instr.Dconst 3)) (m (Instr.Dconst 3)));
  Alcotest.(check bool) "diff const" false
    (A.Alias.may_alias (m (Instr.Dconst 3)) (m (Instr.Dconst 4)));
  Alcotest.(check bool) "dyn vs const" true
    (A.Alias.may_alias (m (Instr.Dreg Reg.r0)) (m (Instr.Dconst 4)));
  Alcotest.(check bool) "different spaces" false
    (A.Alias.may_alias (m (Instr.Dconst 3)) (m ~s:s2 (Instr.Dconst 3)))

let test_wcet_spans () =
  (* After region formation every span is finite and positive. *)
  let p = diamond_loop () in
  let next_id = ref 0 in
  ignore (Gecko_core.Regions.form ~next_id p);
  let g = graph_of p in
  let w = A.Wcet.compute g in
  let spans = A.Wcet.boundary_spans w in
  Alcotest.(check bool) "has boundaries" true (List.length spans >= 2);
  List.iter
    (fun (_, _, span) -> Alcotest.(check bool) "positive span" true (span > 0))
    spans

let test_wcet_unbounded () =
  (* Without formation the loop has no boundary: the WCET must refuse. *)
  let p = diamond_loop () in
  let g = graph_of p in
  (match A.Wcet.compute g with
  | exception A.Wcet.Unbounded _ -> ()
  | _ -> Alcotest.fail "expected Unbounded")

let test_clobbers () =
  let b = B.program "calls" in
  B.func b "main";
  B.block b "e";
  B.call b "f" ~ret:"r";
  B.block b "r";
  B.halt b;
  B.func b "f";
  B.block b "fe";
  B.li b Reg.r7 1;
  B.call b "g" ~ret:"fr";
  B.block b "fr";
  B.ret b;
  B.func b "g";
  B.block b "ge";
  B.li b Reg.r8 2;
  B.ret b;
  let p = B.finish b in
  let c = A.Clobbers.compute p in
  let cf = A.Clobbers.of_function c "f" in
  Alcotest.(check bool) "f clobbers r7" true (Reg.Set.mem Reg.r7 cf);
  Alcotest.(check bool) "f clobbers r8 transitively" true (Reg.Set.mem Reg.r8 cf);
  Alcotest.(check bool) "f does not clobber sp" false (Reg.Set.mem Reg.sp cf)

let test_ipliveness () =
  let b = B.program "ipl" in
  let out = B.space b "o" ~words:1 () in
  B.func b "main";
  B.block b "e";
  B.li b Reg.r0 41;
  B.call b "inc" ~ret:"r";
  B.block b "r";
  B.st b (B.at out 0) Reg.r0;
  B.halt b;
  B.func b "inc";
  B.block b "ie";
  B.add b Reg.r0 Reg.r0 (B.imm 1);
  B.ret b;
  let p = B.finish b in
  let l = A.Ipliveness.compute p in
  let g = A.Ipliveness.graph l ~fname:"inc" in
  ignore g;
  (* r0 is live at the callee entry (used there and by the caller after
     return); r5 is not. *)
  let live = A.Ipliveness.live_at l ~fname:"inc" { A.Fgraph.blk = 0; idx = 0 } in
  Alcotest.(check bool) "r0 live in callee" true (Reg.Set.mem Reg.r0 live);
  Alcotest.(check bool) "r5 dead in callee" false (Reg.Set.mem Reg.r5 live)

(* {1 QCheck properties for the alias / value-tracking layer}

   The precision refactor's three contract points (ISSUE 9): constant
   slots are separated by construction, the value domain never excludes
   a concretely reachable register value, and the non-strict scan kept
   as the Legacy measurement baseline still reproduces the seed's
   optimistic algorithm exactly. *)

module V = A.Vrange

let space_a = { Instr.space_name = "a"; space_id = 0; space_words = 64 }
let space_b = { Instr.space_name = "b"; space_id = 1; space_words = 64 }

let prop_distinct_slots =
  QCheck.Test.make ~count:400
    ~name:"distinct constant-offset slots never alias"
    QCheck.(triple (int_bound 63) (int_bound 63) bool)
    (fun (i, j, same_space) ->
      let m s d = { Instr.space = s; disp = Instr.Dconst d } in
      let verdict =
        A.Alias.may_alias (m space_a i)
          (m (if same_space then space_a else space_b) j)
      in
      (* Same space: alias iff the very same slot.  Distinct spaces are
         distinct allocations, whatever the offsets. *)
      if same_space then verdict = (i = j) else not verdict)

(* Concrete little-interpreter over an uncompiled CFG: walks main's
   blocks with a 16-register file and per-space word arrays, calling
   [on_point ~blk ~idx regs] immediately before each instruction — the
   exact program points {!V.before} abstracts.  Only the instruction
   subset Gen_prog emits is handled. *)
let concrete_trace p (g : A.Fgraph.t) ~on_point =
  let regs = Array.make Reg.count 0 in
  let mem = Hashtbl.create 4 in
  List.iter
    (fun (s : Instr.space) ->
      let a = Array.make s.Instr.space_words 0 in
      (match List.assoc_opt s.Instr.space_id p.Cfg.init_data with
      | Some init -> Array.blit init 0 a 0 (Array.length init)
      | None -> ());
      Hashtbl.replace mem s.Instr.space_id a)
    p.Cfg.spaces;
  let rd r = regs.(Reg.to_int r) in
  let wr r v = regs.(Reg.to_int r) <- v in
  let addr (m : Instr.mref) =
    let off =
      match m.Instr.disp with Instr.Dconst c -> c | Instr.Dreg r -> rd r
    in
    (Hashtbl.find mem m.Instr.space.Instr.space_id, off)
  in
  let steps = ref 0 in
  let rec run blk =
    let body = Array.of_list g.A.Fgraph.blocks.(blk).Cfg.instrs in
    Array.iteri
      (fun idx i ->
        incr steps;
        if !steps > 200_000 then failwith "generated trace too long";
        on_point ~blk ~idx regs;
        match i with
        | Instr.Li (r, v) -> wr r v
        | Instr.Mov (d, s) -> wr d (rd s)
        | Instr.Bin (op, d, s1, s2) ->
            let b =
              match s2 with Instr.Oreg r -> rd r | Instr.Oimm k -> k
            in
            wr d (Instr.eval_binop op (rd s1) b)
        | Instr.Ld (d, m) ->
            let a, off = addr m in
            wr d (if off >= 0 && off < Array.length a then a.(off) else 0)
        | Instr.St (m, s) ->
            let a, off = addr m in
            if off >= 0 && off < Array.length a then a.(off) <- rd s
        | Instr.Out _ | Instr.Nop | Instr.Boundary _ -> ()
        | Instr.In _ | Instr.Ckpt _ | Instr.CkptDyn _ | Instr.LdSlot _ ->
            failwith "unexpected instruction in generated program")
      body;
    match g.A.Fgraph.blocks.(blk).Cfg.term with
    | Instr.Jmp l -> run (A.Fgraph.block_id g l)
    | Instr.Br (c, r, t, e) ->
        run
          (A.Fgraph.block_id g (if Instr.eval_cond c (rd r) then t else e))
    | Instr.Halt -> ()
    | Instr.Call _ | Instr.Ret -> failwith "unexpected call/ret"
  in
  run 0

let seed_gen = QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 99999)

let prop_vrange_sound =
  QCheck.Test.make ~count:60
    ~name:"vrange verdicts sound against the dynamic-trace oracle" seed_gen
    (fun seed ->
      let p = Gen_prog.generate seed in
      let g = A.Fgraph.of_func (Cfg.find_func p "main") in
      let v = V.analyze g in
      let ok = ref true in
      concrete_trace p g ~on_point:(fun ~blk ~idx regs ->
          (* Every concretely reachable register value must be inside
             its abstraction: [may_equal (const x) av] may only be false
             when [av] provably excludes [x]. *)
          for r = 0 to Reg.count - 1 do
            if
              not
                (V.may_equal
                   (V.const regs.(r))
                   (V.before v ~blk ~idx (Reg.of_int r)))
            then ok := false
          done);
      !ok)

(* The seed's optimistic backward scan, reimplemented verbatim as the
   oracle: skip every store that only may-alias, return the first
   must-alias write, stop at a boundary.  [last_write_before
   ~strict:false] is kept solely to reproduce this baseline (Legacy
   mode's overhead measurement), so the two must agree everywhere. *)
let seed_scan (body : Instr.t array) idx m =
  let result = ref A.Alias.No_write in
  (try
     for j = idx - 1 downto 0 do
       match body.(j) with
       | Instr.Boundary _ -> raise Exit
       | i -> (
           match Instr.mem_write i with
           | Some w when A.Alias.must_alias_in_block body j idx w m ->
               result := A.Alias.Write j;
               raise Exit
           | Some _ | None -> ())
     done
   with Exit -> ());
  !result

let scan_case_gen =
  let open QCheck.Gen in
  let reg = map Reg.of_int (int_bound 3) in
  let disp =
    oneof
      [
        map (fun c -> Instr.Dconst c) (int_bound 7);
        map (fun r -> Instr.Dreg r) reg;
      ]
  in
  let mref = map (fun d -> { Instr.space = space_a; disp = d }) disp in
  let instr =
    frequency
      [
        (3, map2 (fun m r -> Instr.St (m, r)) mref reg);
        (2, map2 (fun r v -> Instr.Li (r, v)) reg (int_bound 7));
        (1, return (Instr.Boundary 0));
        (1, map2 (fun r m -> Instr.Ld (r, m)) reg mref);
      ]
  in
  list_size (int_range 1 12) instr >>= fun instrs ->
  let body = Array.of_list instrs in
  int_bound (Array.length body) >>= fun idx ->
  mref >>= fun m -> return (body, idx, m)

let prop_nonstrict_scan_is_seed =
  QCheck.Test.make ~count:500
    ~name:"~strict:false reproduces the seed's optimistic scan"
    (QCheck.make
       ~print:(fun (body, idx, m) ->
         Printf.sprintf "idx=%d ref=%s in [%s]" idx
           (Format.asprintf "%a" Instr.pp_mref m)
           (String.concat "; "
              (Array.to_list (Array.map Instr.to_string body))))
       scan_case_gen)
    (fun (body, idx, m) ->
      A.Alias.last_write_before ~strict:false body idx m = seed_scan body idx m)

(* Boundary insertion leaves the block-level analyses exact.  The
   colouring pass keeps liveness, clobber summaries, dominators, block
   reachability and reaching definitions across its repair rounds, each
   of which inserts one [Boundary]; these properties pin that argument.
   A source is a Gen_prog seed or, for call/return structure, a
   workload; [pick] chooses the insertion point. *)
type source = Generated of int | Workload of string

let source_gen =
  let open QCheck.Gen in
  let workloads = Array.of_list Gecko_workloads.Workload.names in
  pair
    (frequency
       [
         (4, map (fun s -> Generated s) (int_bound 99999));
         ( 1,
           map
             (fun i -> Workload workloads.(i))
             (int_bound (Array.length workloads - 1)) );
       ])
    (int_bound 1_000_000)

let source_arb =
  QCheck.make source_gen ~print:(fun (src, pick) ->
      (match src with
      | Generated s -> Printf.sprintf "Gen_prog %d" s
      | Workload w -> "workload " ^ w)
      ^ Printf.sprintf ", pick %d" pick)

(* The program with its regions formed: boundaries present, no WAR
   hazard left. *)
let formed src =
  let p =
    match src with
    | Generated s -> Gen_prog.generate s
    | Workload w ->
        (Gecko_workloads.Workload.find w).Gecko_workloads.Workload.build ()
  in
  let next_id = ref 0 in
  ignore (Gecko_core.Regions.form ~next_id p);
  (p, next_id)

(* Every (function, block, idx) point, idx up to the terminator
   position. *)
let all_points (p : Cfg.program) =
  List.concat_map
    (fun (f : Cfg.func) ->
      List.concat
        (List.mapi
           (fun bi (b : Cfg.block) ->
             List.init
               (List.length b.Cfg.instrs + 1)
               (fun idx -> (f.Cfg.fname, { A.Fgraph.blk = bi; idx })))
           f.Cfg.blocks))
    p.Cfg.funcs

let insert_boundary (p : Cfg.program) ~id (fname, (at : A.Fgraph.point)) =
  let b = List.nth (Cfg.find_func p fname).Cfg.blocks at.A.Fgraph.blk in
  let before, after =
    List.partition (fun (i, _) -> i < at.A.Fgraph.idx)
      (List.mapi (fun i x -> (i, x)) b.Cfg.instrs)
  in
  b.Cfg.instrs <- List.map snd before @ (Instr.Boundary id :: List.map snd after)

(* Where a pre-insertion point sits afterwards. *)
let shifted (fname, (at : A.Fgraph.point)) (fn, (q : A.Fgraph.point)) =
  if
    fn = fname
    && q.A.Fgraph.blk = at.A.Fgraph.blk
    && q.A.Fgraph.idx >= at.A.Fgraph.idx
  then { q with A.Fgraph.idx = q.A.Fgraph.idx + 1 }
  else q

(* The analyses of [p] as they stand: liveness and reaching
   definitions are objects, queried later at chosen points; the
   block-level facts are read out at once. *)
type analyses = {
  live : A.Ipliveness.t;
  reaching : string -> A.Reaching.t;
  clobbers : string -> Reg.Set.t;
  idoms : string -> int list;
  reach : string -> bool list;
}

let analyses (p : Cfg.program) =
  let live = A.Ipliveness.compute p in
  let clobbers = A.Clobbers.compute p in
  let per_func f =
    let tbl = Hashtbl.create 4 in
    List.iter
      (fun (fn : Cfg.func) ->
        Hashtbl.replace tbl fn.Cfg.fname
          (f (A.Ipliveness.graph live ~fname:fn.Cfg.fname)))
      p.Cfg.funcs;
    Hashtbl.find tbl
  in
  let blocks g = List.init (A.Fgraph.n_blocks g) Fun.id in
  let call_defs = A.Clobbers.of_function clobbers in
  {
    live;
    reaching = per_func (A.Reaching.compute ~call_defs);
    clobbers = call_defs;
    idoms =
      per_func (fun g -> List.map (A.Dom.idom (A.Dom.compute g)) (blocks g));
    reach =
      per_func (fun g ->
          let r = A.Blockreach.compute g in
          List.concat_map
            (fun a -> List.map (A.Blockreach.reaches r a) (blocks g))
            (blocks g));
  }

(* Live set and per-register reaching definitions at a point. *)
let at_point (t : analyses) (fname, q) =
  ( A.Ipliveness.live_at t.live ~fname q,
    List.map (fun r -> A.Reaching.reaching_at (t.reaching fname) r q) Reg.all )

let same_at (live, defs) (live', defs') =
  Reg.Set.equal live live'
  && List.for_all2
       (fun a b ->
         List.length a = List.length b
         && List.for_all2 A.Reaching.def_equal a b)
       defs defs'

let prop_boundary_invariance =
  QCheck.Test.make ~count:150
    ~name:"boundary insertion keeps liveness, clobbers, dom, reach, reaching"
    source_arb (fun (src, pick) ->
      let p, next_id = formed src in
      let points = all_points p in
      let kept = analyses p in
      let expected = List.map (at_point kept) points in
      let at = List.nth points (pick mod List.length points) in
      let expected_at = at_point kept at in
      insert_boundary p ~id:!next_id at;
      let fresh = analyses p in
      (* Definition points move with the instructions they name. *)
      let moved fname (live, defs) =
        ( live,
          List.map
            (List.map (function
              | A.Reaching.Entry -> A.Reaching.Entry
              | A.Reaching.Site q -> A.Reaching.Site (shifted at (fname, q))))
            defs )
      in
      List.for_all
        (fun (f : Cfg.func) ->
          let fname = f.Cfg.fname in
          Reg.Set.equal (kept.clobbers fname) (fresh.clobbers fname)
          && kept.idoms fname = fresh.idoms fname
          && kept.reach fname = fresh.reach fname)
        p.Cfg.funcs
      (* Every old point, shifted, sees what it saw before; the new
         boundary sees what the instruction it displaced saw.  Both the
         recomputed analyses and the ones computed before the insertion,
         queried after it (what the colouring pass relies on), agree. *)
      && List.for_all2
           (fun ((fname, _) as q) want ->
             let q' = (fname, shifted at q) in
             same_at (at_point fresh q') (moved fname want)
             && same_at (at_point kept q') (moved fname want))
           points expected
      && same_at (at_point fresh at) (moved (fst at) expected_at)
      && same_at (at_point kept at) (moved (fst at) expected_at))

(* A repair goes right after an existing boundary, where every path is
   already cut, so an empty hazard set stays empty in either alias
   domain.  (At an arbitrary point a boundary could split a WARAW-exempt
   store from the load it protects.) *)
let prop_repair_keeps_hazards_empty =
  QCheck.Test.make ~count:150
    ~name:"a boundary right after a boundary keeps war_hazards empty"
    source_arb (fun (src, pick) ->
      let p, next_id = formed src in
      let no_hazards () =
        A.Alias.war_hazards p = []
        && A.Alias.war_hazards ~domain:A.Alias.Value p = []
      in
      QCheck.assume (no_hazards ());
      let after_boundaries =
        List.filter_map
          (fun (fname, (q : A.Fgraph.point)) ->
            let blocks = (Cfg.find_func p fname).Cfg.blocks in
            let b = List.nth blocks q.A.Fgraph.blk in
            match List.nth_opt b.Cfg.instrs q.A.Fgraph.idx with
            | Some (Instr.Boundary _) ->
                Some (fname, { q with A.Fgraph.idx = q.A.Fgraph.idx + 1 })
            | Some _ | None -> None)
          (all_points p)
      in
      QCheck.assume (after_boundaries <> []);
      let n = List.length after_boundaries in
      insert_boundary p ~id:!next_id (List.nth after_boundaries (pick mod n));
      no_hazards ())

let () =
  Alcotest.run "analysis"
    [
      ( "cfg",
        [
          Alcotest.test_case "dominators" `Quick test_dominators;
          Alcotest.test_case "loops" `Quick test_loops;
          Alcotest.test_case "liveness" `Quick test_liveness;
          Alcotest.test_case "reaching defs" `Quick test_reaching;
          Alcotest.test_case "alias" `Quick test_alias;
        ] );
      ( "wcet",
        [
          Alcotest.test_case "spans" `Quick test_wcet_spans;
          Alcotest.test_case "unbounded" `Quick test_wcet_unbounded;
        ] );
      ( "interprocedural",
        [
          Alcotest.test_case "clobbers" `Quick test_clobbers;
          Alcotest.test_case "liveness" `Quick test_ipliveness;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_distinct_slots;
            prop_vrange_sound;
            prop_nonstrict_scan_is_seed;
            prop_boundary_invariance;
            prop_repair_keeps_hazards_empty;
          ]
      );
    ]
