(* Array-backed binary min-heap with FIFO tie-breaking.

   Each element is stored with the sequence number of its insertion; the
   effective ordering is [(cmp, seq)] lexicographically, so equal-priority
   elements pop in insertion order.  This determinism matters: the
   simulator schedules many events at the same timestamp and the
   protocols must process them in a reproducible order. *)

type 'a entry = { value : 'a; seq : int }

type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create ~cmp = { cmp; data = [||]; size = 0; next_seq = 0 }

let length t = t.size

let is_empty t = t.size = 0

let entry_cmp t a b =
  let c = t.cmp a.value b.value in
  if c <> 0 then c else compare a.seq b.seq

let grow t =
  let capacity = Array.length t.data in
  if t.size = capacity then begin
    let fresh_capacity = if capacity = 0 then 16 else 2 * capacity in
    (* The dummy cell is never read: indices >= size are dead. *)
    let fresh = Array.make fresh_capacity t.data.(0) in
    Array.blit t.data 0 fresh 0 t.size;
    t.data <- fresh
  end

let push t v =
  let e = { value = v; seq = t.next_seq } in
  t.next_seq <- t.next_seq + 1;
  if Array.length t.data = 0 then t.data <- Array.make 16 e else grow t;
  t.data.(t.size) <- e;
  t.size <- t.size + 1;
  (* Sift up. *)
  let i = ref (t.size - 1) in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if entry_cmp t t.data.(!i) t.data.(parent) < 0 then begin
      let tmp = t.data.(!i) in
      t.data.(!i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      i := parent
    end else continue := false
  done

let peek t = if t.size = 0 then None else Some t.data.(0).value

let sift_down t =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.size && entry_cmp t t.data.(l) t.data.(!smallest) < 0 then smallest := l;
    if r < t.size && entry_cmp t t.data.(r) t.data.(!smallest) < 0 then smallest := r;
    if !smallest <> !i then begin
      let tmp = t.data.(!i) in
      t.data.(!i) <- t.data.(!smallest);
      t.data.(!smallest) <- tmp;
      i := !smallest
    end else continue := false
  done

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0).value in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t
    end;
    Some top
  end

let pop_exn t =
  match pop t with
  | Some v -> v
  | None -> invalid_arg "Heap.pop_exn: empty heap"

let clear t =
  t.size <- 0;
  t.data <- [||]

let to_list t =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (t.data.(i).value :: acc) in
  loop (t.size - 1) []
