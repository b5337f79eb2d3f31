type t = { trace_id : string; span : int; parent : int option }

(* Span ids are allocated per trace id from a minter: a plain counter
   table, no wall clock, so identical seeded runs mint identical ids in
   identical order. *)
type minter = { next : (string, int) Hashtbl.t }

(* One bucket to start, grown as trace ids are minted: a task that mints
   no span pays a few words for its minter. *)
let create_minter () = { next = Hashtbl.create 1 }

let default = create_minter ()

(* The ambient minter is domain-local (counter tables are plain
   Hashtbls — sharing one across domains would race).  The main domain
   gets [default]; a [Par] task installs a fresh minter via
   [with_minter], so the span ids a task mints are a deterministic
   function of the task alone, not of which domain ran it or what ran
   before — fingerprints are identical at any [--jobs]. *)
let current_key : minter Domain.DLS.key = Domain.DLS.new_key create_minter
let () = Domain.DLS.set current_key default
let current () = Domain.DLS.get current_key

let with_minter m f =
  let prev = current () in
  Domain.DLS.set current_key m;
  Fun.protect ~finally:(fun () -> Domain.DLS.set current_key prev) f

let reset ?minter () =
  let m = match minter with Some m -> m | None -> current () in
  Hashtbl.reset m.next

let alloc minter trace_id =
  let n = Option.value ~default:0 (Hashtbl.find_opt minter.next trace_id) in
  Hashtbl.replace minter.next trace_id (n + 1);
  n

let root ?minter trace_id =
  let m = match minter with Some m -> m | None -> current () in
  { trace_id; span = alloc m trace_id; parent = None }

let child ?minter p =
  let m = match minter with Some m -> m | None -> current () in
  { trace_id = p.trace_id; span = alloc m p.trace_id; parent = Some p.span }

let claim_id ~owner prefix = Printf.sprintf "claim:%d:%s" owner prefix

let group_id group = "group:" ^ group

let join_id ~group ~member = Printf.sprintf "join:%s:%s" group member

let kind t =
  match String.index_opt t.trace_id ':' with
  | Some i -> String.sub t.trace_id 0 i
  | None -> t.trace_id

let pp ppf t =
  match t.parent with
  | None -> Format.fprintf ppf "%s#%d" t.trace_id t.span
  | Some p -> Format.fprintf ppf "%s#%d<-%d" t.trace_id t.span p
