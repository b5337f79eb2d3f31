type t =
  | Null
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

exception Bad

(* Recursive descent over one document.  [\u] escapes decode only the
   byte range [json_escape] produces; numbers must be finite. *)
let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    skip_ws ();
    if !pos < n && s.[!pos] = c then incr pos else raise Bad
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise Bad;
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
          if !pos >= n then raise Bad;
          let e = s.[!pos] in
          incr pos;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char b e
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' when !pos + 4 <= n -> (
              match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
              | Some code when code < 0x100 ->
                  Buffer.add_char b (Char.chr code);
                  pos := !pos + 4
              | Some _ | None -> raise Bad)
          | _ -> raise Bad);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    while
      match peek () with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f when Float.is_finite f -> Number f
    | Some _ | None -> raise Bad
  in
  let literal word v =
    let k = String.length word in
    if !pos + k <= n && String.sub s !pos k = word then begin
      pos := !pos + k;
      v
    end
    else raise Bad
  in
  (* [items close item] reads [item (, item)* close] after the opener. *)
  let items close item =
    skip_ws ();
    if peek () = close then begin
      incr pos;
      []
    end
    else
      let rec more acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | ',' ->
            incr pos;
            more acc
        | c when c = close ->
            incr pos;
            List.rev acc
        | _ -> raise Bad
      in
      more []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '"' -> String (parse_string ())
    | '{' ->
        incr pos;
        Object
          (items '}' (fun () ->
               let k = parse_string () in
               expect ':';
               (k, value ())))
    | '[' ->
        incr pos;
        Array (items ']' value)
    | 'n' -> literal "null" Null
    | _ -> parse_number ()
  in
  match value () with
  | v ->
      skip_ws ();
      if !pos = n then Some v else None
  | exception Bad -> None

(* --- decoding ---------------------------------------------------------- *)

let member key = function Object kvs -> List.assoc_opt key kvs | _ -> None

let to_string = function String s -> Some s | _ -> None

let to_float = function Number f -> Some f | _ -> None

(* OCaml ints span [-2^62, 2^62). *)
let to_int = function
  | Number f when Float.is_integer f && f >= -0x1p62 && f < 0x1p62 -> Some (int_of_float f)
  | _ -> None

let to_list conv = function
  | Array l ->
      List.fold_right
        (fun x acc -> match (conv x, acc) with Some y, Some l -> Some (y :: l) | _ -> None)
        l (Some [])
  | _ -> None

let field key conv v = Option.bind (member key v) conv

let opt_field key conv v =
  match member key v with
  | None | Some Null -> Some None
  | Some x -> Option.map Option.some (conv x)

let load_counted path decode =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec loop acc bad =
        match input_line ic with
        | exception End_of_file -> (List.rev acc, bad)
        | line when String.trim line = "" -> loop acc bad
        | line -> (
            match Option.bind (parse line) decode with
            | Some x -> loop (x :: acc) bad
            | None -> loop acc (bad + 1))
      in
      loop [] 0)

(* The last line starts after the last newline; read backwards a block
   at a time, so a long file costs a few blocks. *)
let last_line_cut path =
  In_channel.with_open_bin path (fun ic ->
      let len = Int64.to_int (In_channel.length ic) in
      let read_at pos n =
        In_channel.seek ic (Int64.of_int pos);
        really_input_string ic n
      in
      let rec line_start stop =
        let from = max 0 (stop - 4096) in
        match String.rindex_opt (read_at from (stop - from)) '\n' with
        | Some i -> from + i + 1
        | None -> if from = 0 then 0 else line_start from
      in
      len > 0
      && read_at (len - 1) 1 <> "\n"
      &&
      let start = line_start len in
      let line = read_at start (len - start) in
      String.trim line <> "" && parse line = None)
