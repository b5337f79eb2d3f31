type sink = Memory | Ring of int | Jsonl of string

type store =
  | S_memory of (float * (string * float) list) list ref  (* reversed *)
  | S_ring of { cap : int; buf : (float * (string * float) list) option array; mutable next : int }
  | S_jsonl of { file : string; mutable oc : out_channel option }

type t = {
  mutable srcs : (string * (unit -> float) ref) list;  (* reversed registration order *)
  store : store;
  mutable n : int;
}

let create ?(sink = Memory) () =
  let store =
    match sink with
    | Memory -> S_memory (ref [])
    | Ring cap ->
        if cap <= 0 then invalid_arg "Timeseries.create: non-positive ring";
        S_ring { cap; buf = Array.make cap None; next = 0 }
    | Jsonl file -> S_jsonl { file; oc = None }
  in
  { srcs = []; store; n = 0 }

let register t name read =
  match List.assoc_opt name t.srcs with
  | Some cell -> cell := read
  | None -> t.srcs <- (name, ref read) :: t.srcs

let register_gauge t name g = register t name (fun () -> Metrics.value g)

let register_counter t name c = register t name (fun () -> float_of_int (Metrics.count c))

let sources t = List.rev_map fst t.srcs

let emit t ~time row =
  t.n <- t.n + 1;
  match t.store with
  | S_memory cell -> cell := (time, row) :: !cell
  | S_ring r ->
      r.buf.(r.next) <- Some (time, row);
      r.next <- (r.next + 1) mod r.cap
  | S_jsonl j ->
      let oc =
        match j.oc with
        | Some oc -> oc
        | None ->
            let oc = open_out j.file in
            j.oc <- Some oc;
            oc
      in
      List.iter
        (fun (name, v) ->
          Printf.fprintf oc "{\"at\": %.17g, \"series\": \"%s\", \"value\": %.17g}\n" time
            (Jsonl.json_escape name) v)
        row

let sample t ~time = emit t ~time (List.rev_map (fun (name, read) -> (name, !read ())) t.srcs)

let samples t = t.n

let rows t =
  match t.store with
  | S_memory cell -> List.rev !cell
  | S_ring r ->
      let out = ref [] in
      for i = 1 to r.cap do
        (* oldest slot first: [next] points at the oldest entry *)
        match r.buf.((r.next + r.cap - i) mod r.cap) with
        | Some row -> out := row :: !out
        | None -> ()
      done;
      !out
  | S_jsonl _ -> []

let close t =
  match t.store with
  | S_jsonl j -> (
      match j.oc with
      | Some oc ->
          close_out oc;
          j.oc <- None
      | None -> ())
  | S_memory _ | S_ring _ -> ()

(* --- Loading --------------------------------------------------------- *)

type point = { at : float; series : string; value : float }

let point_of_value v =
  let open Jsonl in
  let ( let* ) = Option.bind in
  let* at = field "at" to_float v in
  let* series = field "series" to_string v in
  let* value = field "value" to_float v in
  Some { at; series; value }

let load_jsonl_counted file = Jsonl.load_counted file point_of_value

let series_of points =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun p ->
      match Hashtbl.find_opt tbl p.series with
      | Some cell -> cell := (p.at, p.value) :: !cell
      | None ->
          Hashtbl.add tbl p.series (ref [ (p.at, p.value) ]);
          order := p.series :: !order)
    points;
  List.rev_map (fun name -> (name, Array.of_list (List.rev !(Hashtbl.find tbl name)))) !order
