(* A per-domain tree of sections, rooted in the domain's [Obs_ctx]
   context.  The same section name under two different parents is two
   nodes, so total/self accounting stays a strict tree and folded
   stacks come out for free.  All mutation is behind the [on] flag: the
   disabled path of [span] is one load, one branch and a tail call.

   Each domain builds into its own context's tree, so workers can
   profile concurrently without racing; [Obs.capture] gives a task a
   detached root and [Obs.merge] grafts it back under the submitting
   domain's open span.  The [on] flag itself is shared — it is flipped
   by the main domain while no workers run, and the pool's task
   hand-off (mutex) publishes it. *)

open Obs_ctx

let on = ref false

let is_enabled () = !on

let reset () =
  let ctx = Obs_ctx.get () in
  ctx.prof_root <- node "";
  ctx.prof_cur <- ctx.prof_root

let enable () =
  reset ();
  on := true

let disable () = on := false

(* Bytes allocated so far by this domain.  [Gc.allocated_bytes] on
   OCaml 5.1 leaves out the current minor heap, so its deltas land on
   whichever span is open when the count catches up; [Gc.minor_words]
   counts the minor heap exactly, and words promoted out of it are
   counted again among the major words. *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

let span name f =
  if not !on then f ()
  else begin
    let ctx = Obs_ctx.get () in
    let parent = ctx.prof_cur in
    let node = child_of parent name in
    node.count <- node.count + 1;
    ctx.prof_cur <- node;
    let t0 = Unix.gettimeofday () in
    let a0 = allocated_bytes () in
    Fun.protect
      ~finally:(fun () ->
        node.total_s <- node.total_s +. (Unix.gettimeofday () -. t0);
        node.total_bytes <- node.total_bytes +. (allocated_bytes () -. a0);
        ctx.prof_cur <- parent)
      f
  end

(* --- Reporting ------------------------------------------------------- *)

type row = {
  path : string list;
  count : int;
  total_s : float;
  self_s : float;
  total_bytes : float;
  self_bytes : float;
}

let children_in_order (node : node) : node list =
  List.rev_map (Hashtbl.find node.children) node.order

let rows_of_node root =
  let acc = ref [] in
  let rec walk path (node : node) =
    let kids = children_in_order node in
    let kid_s = List.fold_left (fun s (k : node) -> s +. k.total_s) 0.0 kids in
    let kid_b = List.fold_left (fun s (k : node) -> s +. k.total_bytes) 0.0 kids in
    if node.name <> "" then begin
      let path = path @ [ node.name ] in
      acc :=
        {
          path;
          count = node.count;
          total_s = node.total_s;
          self_s = Float.max 0.0 (node.total_s -. kid_s);
          total_bytes = node.total_bytes;
          self_bytes = Float.max 0.0 (node.total_bytes -. kid_b);
        }
        :: !acc;
      List.iter (walk path) kids
    end
    else List.iter (walk path) kids
  in
  walk [] root;
  List.rev !acc

let rows () = rows_of_node (Obs_ctx.get ()).prof_root

let pp_seconds ppf s =
  if s >= 1.0 then Format.fprintf ppf "%8.3fs" s
  else if s >= 1e-3 then Format.fprintf ppf "%7.3fms" (s *. 1e3)
  else Format.fprintf ppf "%7.1fus" (s *. 1e6)

let pp_bytes ppf b =
  if Float.abs b >= 1048576.0 then Format.fprintf ppf "%7.1fMB" (b /. 1048576.0)
  else if Float.abs b >= 1024.0 then Format.fprintf ppf "%7.1fkB" (b /. 1024.0)
  else Format.fprintf ppf "%7.0fB " b

let pp_rows ppf rows =
  Format.fprintf ppf "%-40s %10s %9s %9s %9s %9s@." "section" "count" "total" "self" "alloc"
    "self-alloc";
  List.iter
    (fun r ->
      let depth = List.length r.path - 1 in
      let name =
        String.make (2 * depth) ' ' ^ (match List.rev r.path with n :: _ -> n | [] -> "")
      in
      Format.fprintf ppf "%-40s %10d %a %a %a %a@." name r.count pp_seconds r.total_s pp_seconds
        r.self_s pp_bytes r.total_bytes pp_bytes r.self_bytes)
    rows

(* --- JSONL round-trip ------------------------------------------------ *)

(* One JSON object, path joined with [';']. *)
let row_to_json r =
  Printf.sprintf
    "{\"path\": \"%s\", \"count\": %d, \"total_s\": %.17g, \"self_s\": %.17g, \"total_bytes\": \
     %.17g, \"self_bytes\": %.17g}"
    (Jsonl.json_escape (String.concat ";" r.path))
    r.count r.total_s r.self_s r.total_bytes r.self_bytes

let row_of_value v =
  let open Jsonl in
  let ( let* ) = Option.bind in
  let* path = field "path" to_string v in
  let* count = field "count" to_int v in
  let* total_s = field "total_s" to_float v in
  let* self_s = field "self_s" to_float v in
  let* total_bytes = field "total_bytes" to_float v in
  let* self_bytes = field "self_bytes" to_float v in
  Some { path = String.split_on_char ';' path; count; total_s; self_s; total_bytes; self_bytes }

let to_jsonl () =
  let b = Buffer.create 1024 in
  List.iter
    (fun r ->
      Buffer.add_string b (row_to_json r);
      Buffer.add_char b '\n')
    (rows ());
  Buffer.contents b

let write_jsonl file =
  let oc = open_out file in
  output_string oc (to_jsonl ());
  close_out oc

let load_jsonl_counted file = Jsonl.load_counted file row_of_value

let folded rows =
  let b = Buffer.create 1024 in
  List.iter
    (fun r ->
      let us = int_of_float (Float.round (r.self_s *. 1e6)) in
      if us > 0 then Printf.bprintf b "%s %d\n" (String.concat ";" r.path) us)
    rows;
  Buffer.contents b

let find rows path = List.find_opt (fun r -> r.path = path) rows
