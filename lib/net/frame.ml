type reader = {
  mutable buf : Bytes.t;
  mutable pos : int; (* first unconsumed byte *)
  mutable len : int; (* end of buffered data; data is buf[pos..len) *)
  mutable broken : string option; (* sticky decode failure *)
}

let create () = { buf = Bytes.create 4096; pos = 0; len = 0; broken = None }

let buffered r = r.len - r.pos

let feed r src off n =
  if n < 0 || off < 0 || off + n > Bytes.length src then
    invalid_arg "Frame.feed";
  if r.len + n > Bytes.length r.buf then begin
    let used = buffered r in
    if used + n <= Bytes.length r.buf && r.pos > 0 then begin
      (* compact in place *)
      Bytes.blit r.buf r.pos r.buf 0 used;
      r.pos <- 0;
      r.len <- used
    end
    else begin
      let cap = max (2 * Bytes.length r.buf) (used + n) in
      let buf = Bytes.create cap in
      Bytes.blit r.buf r.pos buf 0 used;
      r.buf <- buf;
      r.pos <- 0;
      r.len <- used
    end
  end;
  Bytes.blit src off r.buf r.len n;
  r.len <- r.len + n

let feed_string r s = feed r (Bytes.unsafe_of_string s) 0 (String.length s)

let next r =
  match r.broken with
  | Some e -> Error e
  | None ->
      let avail = buffered r in
      if avail < 4 then Ok None
      else
        let flen =
          Int32.to_int (Bytes.get_int32_le r.buf r.pos) land 0xffffffff
        in
        if flen < Wire.header_len then begin
          r.broken <- Some "frame shorter than header";
          Error "frame shorter than header"
        end
        else if flen > Wire.max_frame then begin
          r.broken <- Some "frame exceeds size limit";
          Error "frame exceeds size limit"
        end
        else if avail < 4 + flen then Ok None
        else begin
          let payload = Bytes.sub_string r.buf (r.pos + 4) flen in
          r.pos <- r.pos + 4 + flen;
          if r.pos = r.len then begin
            r.pos <- 0;
            r.len <- 0
          end;
          Ok (Some payload)
        end
