(* A small JSON reader for the server's metric registry snapshot
   ([Client.metrics ~format:Json]), and a writer for the result line. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\n' | '\r' | '\t' ->
          incr pos;
          ws ()
      | _ -> ()
  in
  let expect c =
    ws ();
    if peek () <> c then
      raise (Parse_error (Printf.sprintf "expected %c at %d" c !pos));
    incr pos
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Parse_error "unterminated string");
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
          let e = peek () in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              (* escapes never occur in metric names; keep them verbatim *)
              Buffer.add_string b "\\u"
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        ws ();
        if peek () = '}' then (incr pos; Obj [])
        else
          let rec fields acc =
            let k = str () in
            expect ':';
            let v = value () in
            ws ();
            match peek () with
            | ',' -> incr pos; fields ((k, v) :: acc)
            | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
            | _ -> raise (Parse_error "bad object")
          in
          fields []
    | '[' ->
        incr pos;
        ws ();
        if peek () = ']' then (incr pos; Arr [])
        else
          let rec items acc =
            let v = value () in
            ws ();
            match peek () with
            | ',' -> incr pos; items (v :: acc)
            | ']' -> incr pos; Arr (List.rev (v :: acc))
            | _ -> raise (Parse_error "bad array")
          in
          items []
    | '"' -> Str (str ())
    | 't' -> pos := !pos + 4; Bool true
    | 'f' -> pos := !pos + 5; Bool false
    | 'n' -> pos := !pos + 4; Null
    | _ ->
        let start = !pos in
        while
          !pos < n
          && match s.[!pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false
        do
          incr pos
        done;
        if !pos = start then raise (Parse_error "unexpected character");
        Num (float_of_string (String.sub s start (!pos - start)))
  in
  value ()

let member k = function Obj l -> List.assoc_opt k l | _ -> None
let to_list = function Arr l -> l | _ -> []
let to_num = function Num f -> f | _ -> nan

(* Number rendering for the result line: finite, full precision. *)
let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"
