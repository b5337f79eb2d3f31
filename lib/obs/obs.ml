(* What a merge needs of a task's context, and no more: a shard may wait
   for its merge while thousands more run, so the task's minter and its
   recorder's tables are left behind. *)
type shard = {
  metrics : Metrics.registry;
  prof_root : Obs_ctx.node;
  records : Recorder.record list;  (** oldest first *)
}

(* What a capture gets while the profiler or the recorder is off: one
   root and one buffer ([Obs_ctx.idle_recorder]) shared by every such
   capture.  Nothing writes to them: while the flags are off nothing is
   recorded, and enabling either inside a capture installs a fresh
   root or buffer in the capture's context. *)
let idle_root = Obs_ctx.node ""

(* A capture allocates its context, an empty registry and the shard; the
   registry's table and the minter come with their first use.  No
   closure is made around [f]. *)
let capture f =
  let prev = Obs_ctx.get () in
  let root = if Prof.is_enabled () then Obs_ctx.node "" else idle_root in
  let ctx =
    {
      Obs_ctx.metrics = Obs_ctx.registry ();
      prof_root = root;
      prof_cur = root;
      recorder = (if Recorder.is_enabled () then Obs_ctx.recorder ~ring:0 else Obs_ctx.idle_recorder);
      minter = None;
    }
  in
  Obs_ctx.set ctx;
  match f () with
  | x ->
      Obs_ctx.set prev;
      (x, { metrics = ctx.metrics; prof_root = root; records = List.rev ctx.recorder.kept })
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Obs_ctx.set prev;
      Printexc.raise_with_backtrace e bt

(* Add [src]'s sections into [dst]'s same-named children, recursively,
   in [src]'s first-entered order. *)
let rec graft_children dst (src : Obs_ctx.node) =
  List.iter
    (fun name ->
      let s = Hashtbl.find src.children name in
      let d = Obs_ctx.child_of dst name in
      d.count <- d.count + s.count;
      d.total_s <- d.total_s +. s.total_s;
      d.total_bytes <- d.total_bytes +. s.total_bytes;
      graft_children d s)
    (List.rev src.order)

(* A replayed record goes through [Recorder.record], which gives it the
   live stream's next seq; a record with a span id always has its trace
   id, so the span comes back whole. *)
let replay (r : Recorder.record) =
  let span =
    match (r.r_span, r.r_trace_id) with
    | Some span, Some trace_id -> Some { Span.trace_id; span; parent = r.r_parent }
    | _ -> None
  in
  Recorder.record ~time:r.r_time ~label:r.r_label ~subject:r.r_subject ?span
    ?trace_id:r.r_trace_id ?detail:r.r_detail ()

let merge shard =
  let ctx = Obs_ctx.get () in
  Metrics.merge_into ~into:ctx.metrics shard.metrics;
  if Prof.is_enabled () then graft_children ctx.prof_cur shard.prof_root;
  if Recorder.is_enabled () then List.iter replay shard.records
