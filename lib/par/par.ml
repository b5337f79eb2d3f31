(* A fixed-size pool of worker domains.  Workers are spawned on first
   parallel batch and then park on a condition variable between
   batches; a batch is published under the pool mutex as a (generation,
   batch) pair, every participating domain — the submitter included —
   grabs task indices from a shared atomic cursor, and the submitter
   waits until the batch's remaining-count hits zero.  Results land in
   per-index slots, so output order is input order no matter which
   domain ran what.

   Worker domains are never joined: they hold no resources beyond
   their heap, and the whole process exits with the main domain. *)

let requested_jobs = ref 1

let set_jobs n =
  if n < 0 then invalid_arg "Par.set_jobs: negative";
  requested_jobs := n

let jobs () =
  let j = if !requested_jobs = 0 then Domain.recommended_domain_count () else !requested_jobs in
  max 1 j

(* Slot 0 is the submitting (main) domain; worker [k] owns slot [k]
   for its whole life, so per-slot state needs no synchronisation. *)
let slot_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

(* Set while a domain is inside a task, so a nested [map] runs inline
   instead of deadlocking the pool against itself. *)
let in_task_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

type batch = {
  bjobs : int;  (* slots allowed to drain this batch *)
  total : int;
  next : int Atomic.t;  (* next task index to claim *)
  run : slot:int -> int -> unit;
  mutable remaining : int;  (* guarded by [m] *)
}

let m = Mutex.create ()
let work_cv = Condition.create ()  (* workers: a new batch is up *)
let done_cv = Condition.create ()  (* submitter: remaining hit zero *)
let generation = ref 0  (* guarded by [m] *)
let current_batch : batch option ref = ref None  (* guarded by [m] *)
let spawned = ref 0

(* Set by the main domain before it publishes a batch to the workers,
   cleared once every task has finished: while it is clear, no other
   domain runs a task.  Workers read it only inside tasks, after taking
   the mutex that published the batch.  A raise that skipped the clear
   would leave it set, which only costs its readers a DLS read. *)
let workers_on = ref false

let workers_running () = !workers_on

let drain b ~slot =
  let rec loop () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.total then begin
      b.run ~slot i;
      Mutex.lock m;
      b.remaining <- b.remaining - 1;
      if b.remaining = 0 then Condition.broadcast done_cv;
      Mutex.unlock m;
      loop ()
    end
  in
  loop ()

let rec worker_loop id last_gen =
  Mutex.lock m;
  while !generation = last_gen do
    Condition.wait work_cv m
  done;
  let gen = !generation in
  let b = !current_batch in
  Mutex.unlock m;
  (match b with Some b when id < b.bjobs -> drain b ~slot:id | Some _ | None -> ());
  worker_loop id gen

(* Grow the pool to [k] workers (slots 1..k). *)
let ensure_workers k =
  while !spawned < k do
    incr spawned;
    let id = !spawned in
    Mutex.lock m;
    let gen = !generation in
    Mutex.unlock m;
    ignore
      (Domain.spawn (fun () ->
           Domain.DLS.set slot_key id;
           worker_loop id gen))
  done

let resolve_jobs = function
  | Some j -> if j = 0 then max 1 (Domain.recommended_domain_count ()) else max 1 j
  | None -> jobs ()

let map_with ?jobs:j ~init f xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let j = min (resolve_jobs j) n in
    let results = Array.make n None in
    let errors = Array.make n None in
    let states = Array.make j None in
    let task slot i =
      let s =
        match states.(slot) with
        | Some s -> s
        | None ->
            let s = init () in
            states.(slot) <- Some s;
            s
      in
      try results.(i) <- Some (f s arr.(i))
      with e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ())
    in
    let run ~slot i =
      let prev = Domain.DLS.get in_task_key in
      Domain.DLS.set in_task_key true;
      Fun.protect ~finally:(fun () -> Domain.DLS.set in_task_key prev) (fun () -> task slot i)
    in
    if j = 1 || Domain.DLS.get in_task_key then
      (* Inline: same per-task wrapper, same run-to-completion and
         lowest-index-raise semantics, no domains. *)
      for i = 0 to n - 1 do
        run ~slot:0 i
      done
    else begin
      ensure_workers (j - 1);
      let b = { bjobs = j; total = n; next = Atomic.make 0; run; remaining = n } in
      workers_on := true;
      Mutex.lock m;
      current_batch := Some b;
      incr generation;
      Condition.broadcast work_cv;
      Mutex.unlock m;
      drain b ~slot:0;
      Mutex.lock m;
      while b.remaining > 0 do
        Condition.wait done_cv m
      done;
      current_batch := None;
      Mutex.unlock m;
      workers_on := false
    end;
    let rec first_error i =
      if i >= n then None else match errors.(i) with Some e -> Some e | None -> first_error (i + 1)
    in
    (match first_error 0 with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.to_list (Array.map (function Some v -> v | None -> assert false) results)
  end

let map ?jobs f xs = map_with ?jobs ~init:(fun () -> ()) (fun () x -> f x) xs
