type t = {
  file : string;
  mutable oc : out_channel option;  (** opened by the first sample *)
  mutable srcs : (string * (unit -> float)) list;  (** registration order *)
}

let create file = { file; oc = None; srcs = [] }

let register t name read =
  if List.mem_assoc name t.srcs then
    invalid_arg (Printf.sprintf "Timeseries.register: duplicate %S" name);
  t.srcs <- t.srcs @ [ (name, read) ]

let sample t ~time =
  let oc =
    match t.oc with
    | Some oc -> oc
    | None ->
        let oc = open_out t.file in
        t.oc <- Some oc;
        oc
  in
  List.iter
    (fun (name, read) ->
      Printf.fprintf oc "{\"at\": %.17g, \"series\": \"%s\", \"value\": %.17g}\n" time
        (Jsonl.json_escape name) (read ()))
    t.srcs

let close t =
  Option.iter close_out t.oc;
  t.oc <- None

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
