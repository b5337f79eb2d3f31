(* Flat JSON objects — one level of string and number fields — the
   only shape the benchmark writes between processes and reads back in
   --compare.  No JSON library is available to the build. *)

type value = Str of string | Num of float

exception Malformed of string

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit the double carries: the shortest %g form that reads back
   to the same float.  Integral values print without a fraction. *)
let number f =
  if not (Float.is_finite f) then invalid_arg "Flat_json.number: not finite"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let value_to_string = function
  | Str s -> quote s
  | Num f -> number f

let to_string fields =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> quote k ^ ": " ^ value_to_string v) fields)
  ^ "}"

let parse line =
  let n = String.length line in
  let pos = ref 0 in
  let fail what = raise (Malformed (Printf.sprintf "%s at column %d" what (!pos + 1))) in
  let rec skip () =
    if !pos < n && (line.[!pos] = ' ' || line.[!pos] = '\t' || line.[!pos] = '\r') then begin
      incr pos;
      skip ()
    end
  in
  let expect c =
    skip ();
    if !pos < n && line.[!pos] = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match line.[!pos] with
        | '"' -> incr pos
        | '\\' when !pos + 1 < n ->
            (match line.[!pos + 1] with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'u' when !pos + 5 < n -> (
                match int_of_string_opt ("0x" ^ String.sub line (!pos + 2) 4) with
                | Some c when c < 0x80 ->
                    Buffer.add_char b (Char.chr c);
                    pos := !pos + 4
                | _ -> fail "unsupported \\u escape")
            | _ -> fail "bad escape");
            pos := !pos + 2;
            go ()
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents b
  in
  let value () =
    skip ();
    if !pos >= n then fail "missing value"
    else
      match line.[!pos] with
      | '"' -> Str (string ())
      | '-' | '0' .. '9' -> (
          let start = !pos in
          while
            !pos < n
            && match line.[!pos] with '-' | '+' | '.' | 'e' | 'E' | '0' .. '9' -> true | _ -> false
          do
            incr pos
          done;
          match float_of_string_opt (String.sub line start (!pos - start)) with
          | Some f -> Num f
          | None -> fail "bad number")
      | _ -> fail "expected a string or a number"
  in
  expect '{';
  skip ();
  let fields =
    if !pos < n && line.[!pos] = '}' then begin
      incr pos;
      []
    end
    else
      let rec members acc =
        let k = string () in
        expect ':';
        let v = value () in
        skip ();
        if !pos < n && line.[!pos] = ',' then begin
          incr pos;
          members ((k, v) :: acc)
        end
        else begin
          expect '}';
          List.rev ((k, v) :: acc)
        end
      in
      members []
  in
  skip ();
  if !pos <> n then fail "trailing characters";
  fields

let str fields k =
  match List.assoc_opt k fields with
  | Some (Str s) -> s
  | _ -> raise (Malformed (Printf.sprintf "missing string field %S" k))

let num fields k =
  match List.assoc_opt k fields with
  | Some (Num f) -> f
  | _ -> raise (Malformed (Printf.sprintf "missing number field %S" k))
