type t = { trace_id : string; span : int; parent : int option }

(* Span ids are allocated per trace id from the minter of the domain's
   [Obs_ctx] context: a plain counter table, no wall clock, so identical
   seeded runs mint identical ids in identical order.  The table is
   never shared across domains, and [Obs.capture] gives each parallel
   task a fresh one, so the span ids a task mints are a deterministic
   function of the task alone — fingerprints are identical at any
   [--jobs].  A context makes its minter at its first mint, so a
   capture that mints nothing pays nothing for it. *)
let reset () = Option.iter Hashtbl.reset (Obs_ctx.get ()).minter

let minter () =
  let ctx = Obs_ctx.get () in
  match ctx.minter with
  | Some next -> next
  | None ->
      let next = Hashtbl.create 1 in
      ctx.minter <- Some next;
      next

let alloc trace_id =
  let next = minter () in
  let n = Option.value ~default:0 (Hashtbl.find_opt next trace_id) in
  Hashtbl.replace next trace_id (n + 1);
  n

let root trace_id = { trace_id; span = alloc trace_id; parent = None }

let child p = { trace_id = p.trace_id; span = alloc p.trace_id; parent = Some p.span }

let claim_id ~owner prefix = Printf.sprintf "claim:%d:%s" owner prefix

let group_id group = "group:" ^ group
