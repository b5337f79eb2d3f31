(* Views of protocol state that only tests ask for, built from the
   program-facing interfaces. *)

(* The next hop toward the root domain of [addr]'s group route. *)
let next_hop_to_root speaker addr = Option.bind (Speaker.lookup speaker addr) Route.next_hop

(* The prefixes a speaker originates itself: its best routes with an
   empty AS path, in prefix order. *)
let originated speaker =
  List.filter_map
    (fun (p, (r : Route.t)) -> if r.Route.as_path = [] then Some p else None)
    (Speaker.best_routes speaker)

(* The number of on-tree domains (members plus transit) of a shared
   tree over [n] domains. *)
let tree_nodes tree ~n =
  List.length (List.filter (Shared_tree.on_tree tree) (List.init n Fun.id))

(* The labels of [id]'s chain as the [trace] view renders it
   ([Trace_report.pp_chain_for]), in order: each entry line reads
   "[time] subject label detail". *)
let chain_labels records ~id =
  let out = Format.asprintf "%a" (fun ppf () -> Trace_report.pp_chain_for ppf records ~id) () in
  List.filter_map
    (fun line ->
      match String.index_opt line ']' with
      | None -> None
      | Some i -> (
          let rest = String.sub line (i + 1) (String.length line - i - 1) in
          match List.filter (( <> ) "") (String.split_on_char ' ' rest) with
          | _subject :: label :: _ -> Some label
          | _ -> None))
    (String.split_on_char '\n' out)
