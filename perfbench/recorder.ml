(* In-memory span recorder for the benchmark's traced run.

   Spans are recorded from the benchmark's own code around calls into the
   program's public functions; nothing is traced inside the program.  A
   disabled recorder runs the wrapped function and records nothing, so the
   traced and untraced runs execute the same benchmark code. *)

type span = {
  id : int;
  name : string;
  parent : int option;
  run : string;  (** Shared by every span of one traced run. *)
  start : float;
  stop : float;
}

type t = {
  enabled : bool;
  run_id : string;
  clock : unit -> float;
  mutable next : int;
  mutable open_ : int list;  (** Ids of the spans still open, innermost first. *)
  mutable closed : span list;  (** Most recent first. *)
}

let create ?(enabled = true) ~run ~clock () =
  { enabled; run_id = run; clock; next = 0; open_ = []; closed = [] }

let disabled = create ~enabled:false ~run:"" ~clock:(fun () -> 0.) ()

let span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.open_ with p :: _ -> Some p | [] -> None in
    t.open_ <- id :: t.open_;
    let start = t.clock () in
    let close () =
      let stop = t.clock () in
      t.open_ <- List.tl t.open_;
      t.closed <- { id; name; parent; run = t.run_id; start; stop } :: t.closed
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

let last t = match t.closed with s :: _ -> Some s.id | [] -> None
let spans t = List.rev t.closed

(* Attributed children: a layer measured from outside the span (a
   profiler's per-pass totals, a probe timing the same call on its own)
   becomes synthetic child spans laid back to back from the parent's
   start.  Scaled down together when their sum exceeds the parent, so a
   child never covers more than its parent does. *)
let split t id parts =
  if t.enabled then
    match List.find_opt (fun s -> s.id = id) t.closed with
    | None -> invalid_arg "Recorder.split: no closed span with this id"
    | Some p ->
        let dur = p.stop -. p.start in
        let total = List.fold_left (fun a (_, d) -> a +. Float.max 0. d) 0. parts in
        let scale = if total > dur && total > 0. then dur /. total else 1. in
        let cursor = ref p.start in
        List.iter
          (fun (name, d) ->
            let d = Float.max 0. d *. scale in
            let id = t.next in
            t.next <- id + 1;
            let start = !cursor in
            let stop = Float.min p.stop (start +. d) in
            cursor := stop;
            t.closed <-
              { id; name; parent = Some p.id; run = t.run_id; start; stop }
              :: t.closed)
          parts

(* Length of the union of [ivs] clipped to [lo, hi]. *)
let covered ~lo ~hi ivs =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
        | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0. None ivs

let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p -> Hashtbl.add children p (s.start, s.stop)
      | None -> ())
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids))
    spans

let self_by_name spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (prev +. self))
    (self_times spans);
  tbl

let to_json spans =
  let one s =
    Printf.sprintf
      "{\"run\":%S,\"id\":%d,\"parent\":%s,\"name\":%S,\"start\":%.9f,\"end\":%.9f}"
      s.run s.id
      (match s.parent with Some p -> string_of_int p | None -> "null")
      s.name s.start s.stop
  in
  "[" ^ String.concat ",\n" (List.map one spans) ^ "]\n"
