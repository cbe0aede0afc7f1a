(** Versioned, checksummed on-disk blobs (see the interface for the
    format contract).  Layout, all integers little-endian:

    {v
    offset  size  field
    0       8     magic "SKFBLOB\x01"
    8       1     kind length K (<= 255)
    9       K     kind bytes (ASCII tag)
    9+K     4     schema version (caller-owned, per kind)
    13+K    8     payload length N
    21+K    4     CRC-32 of the payload
    25+K    N     payload
    v} *)

type error =
  | Io of { path : string; message : string }
  | Truncated of { path : string; expected : int; got : int }
  | Bad_magic of { path : string }
  | Bad_kind of { path : string; found : string; expected : string }
  | Bad_version of { path : string; found : int; expected : int }
  | Bad_checksum of { path : string }
  | Bad_payload of { path : string; message : string }

let error_message = function
  | Io { path; message } -> Printf.sprintf "%s: %s" path message
  | Truncated { path; expected; got } ->
      Printf.sprintf "%s: truncated blob (need %d bytes, have %d)" path expected got
  | Bad_magic { path } -> Printf.sprintf "%s: not a SkipFlow blob (bad magic)" path
  | Bad_kind { path; found; expected } ->
      Printf.sprintf "%s: blob kind %S where %S was expected" path found expected
  | Bad_version { path; found; expected } ->
      Printf.sprintf "%s: unsupported schema version %d (this build reads %d)" path
        found expected
  | Bad_checksum { path } -> Printf.sprintf "%s: payload checksum mismatch" path
  | Bad_payload { path; message } -> Printf.sprintf "%s: bad payload: %s" path message

let magic = "SKFBLOB\x01"

(* ------------------------------ CRC-32 -------------------------------- *)

(* IEEE 802.3, reflected polynomial, slicing-by-4: table [k] (entries
   [256k .. 256k+255]) advances a byte through [k] further zero bytes, so
   one step folds four input bytes with four lookups.  The tables are
   built once on first use.  Kept dependency-free on purpose (no zlib
   binding in the tree). *)
let crc_tables =
  lazy
    (let t = Array.make (4 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 3 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
       done
     done;
     t)

let crc32 s =
  let t = Lazy.force crc_tables in
  let byte i = Char.code (String.unsafe_get s i) in
  let len = String.length s in
  let c = ref 0xFFFFFFFF and i = ref 0 in
  while !i + 4 <= len do
    let x =
      !c
      lxor (byte !i
           lor (byte (!i + 1) lsl 8)
           lor (byte (!i + 2) lsl 16)
           lor (byte (!i + 3) lsl 24))
    in
    c :=
      Array.unsafe_get t (768 + (x land 0xFF))
      lxor Array.unsafe_get t (512 + ((x lsr 8) land 0xFF))
      lxor Array.unsafe_get t (256 + ((x lsr 16) land 0xFF))
      lxor Array.unsafe_get t (x lsr 24);
    i := !i + 4
  done;
  while !i < len do
    c := t.((!c lxor byte !i) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFFFFFF

(* ------------------------------- write -------------------------------- *)

let put_le b off ~bytes v =
  for i = 0 to bytes - 1 do
    Bytes.set b (off + i) (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

(* one exact-size buffer: payloads run to megabytes, and a [Buffer] would
   copy them twice *)
let encode ~kind ~version payload =
  let klen = String.length kind and plen = String.length payload in
  if klen > 255 then invalid_arg "Snapshot.write: kind too long";
  let b = Bytes.create (25 + klen + plen) in
  Bytes.blit_string magic 0 b 0 8;
  Bytes.set b 8 (Char.chr klen);
  Bytes.blit_string kind 0 b 9 klen;
  put_le b (9 + klen) ~bytes:4 version;
  put_le b (13 + klen) ~bytes:8 plen;
  put_le b (21 + klen) ~bytes:4 (crc32 payload);
  Bytes.blit_string payload 0 b (25 + klen) plen;
  Bytes.unsafe_to_string b

(* All blob IO goes through the durable-IO layer: [Io.write_file_atomic]
   owns the tmp-file discipline (closed and unlinked on every failure
   path, fsync per the process durability level) and the EINTR/backoff
   retries, and is where the fault-injection plans hook in. *)
let write ~path ~kind ~version payload =
  let bytes = encode ~kind ~version payload in
  match Io.write_file_atomic ~path bytes with
  | Ok () -> Ok ()
  | Error e -> Error (Io { path; message = e.Io.io_op ^ ": " ^ e.Io.io_message })

(* -------------------------------- read -------------------------------- *)

let get_u32 s off =
  let b i = Char.code s.[off + i] in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

let get_u64 s off = get_u32 s off lor (get_u32 s (off + 4) lsl 32)

let read ~path ~kind ~version =
  match Io.read_file path with
  | Error e -> Error (Io { path; message = e.Io.io_message })
  | Ok s ->
      let len = String.length s in
      let need n = if len < n then Error (Truncated { path; expected = n; got = len }) else Ok () in
      let ( let* ) = Result.bind in
      let* () = need (String.length magic + 1) in
      if String.sub s 0 (String.length magic) <> magic then Error (Bad_magic { path })
      else
        let klen = Char.code s.[8] in
        let* () = need (9 + klen + 16) in
        let found_kind = String.sub s 9 klen in
        if found_kind <> kind then
          Error (Bad_kind { path; found = found_kind; expected = kind })
        else
          let found_version = get_u32 s (9 + klen) in
          if found_version <> version then
            Error (Bad_version { path; found = found_version; expected = version })
          else
            let plen = get_u64 s (13 + klen) in
            let crc = get_u32 s (21 + klen) in
            let start = 25 + klen in
            if plen < 0 || plen > len - start then
              Error (Truncated { path; expected = start + plen; got = len })
            else
              let payload = String.sub s start plen in
              if crc32 payload <> crc then Error (Bad_checksum { path })
              else Ok payload
