//! Append-on-ack journal files: the one persistence format behind the
//! session store (`--session-file`) and the service's result cache
//! (`--cache-file`).
//!
//! # File format
//!
//! ```text
//! [8]  magic — one per store (b"TGPSESSJ" sessions, b"TGPCJRNL" cache)
//! [8]  format version (little-endian u64, currently 1)
//! then zero or more records:
//! [8]  payload length in bytes
//! [8]  FNV-1a checksum of the payload
//! [..] payload — the store's own codec
//! ```
//!
//! A store appends one record per acknowledged mutation, with a single
//! `write_all` ([`Journal::append`]). Appends go straight to the OS page
//! cache, which survives a `kill -9` of the process — only the machine
//! losing power can drop an acknowledged record; no `fsync` is issued.
//! Compaction ([`Journal::rewrite`]) replaces the whole file through a
//! temp sibling and an atomic rename, so a reader never observes a
//! partial file.
//!
//! # Replay
//!
//! [`read`] validates the header strictly (a foreign or future-versioned
//! file is an error, never partially loaded) and then accepts the
//! longest intact prefix of records: the first record with a short
//! frame, an over-long length, a checksum mismatch or a payload its
//! store cannot decode ends replay, and [`Journal::open_for_append`]
//! truncates the file there — a torn tail from a mid-write crash costs
//! the unacknowledged record, nothing else.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const FORMAT_VERSION: u64 = 1;
const HEADER_LEN: u64 = 16;
/// Record frame: payload length + checksum.
const FRAME_LEN: usize = 16;

/// 64-bit FNV-1a digest: the journal record checksum (integrity against
/// torn or corrupted writes, not tampering), also used by the result
/// cache to pick shards and buckets.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(buf)
}

fn corrupt(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// The intact prefix of a journal file.
#[derive(Debug)]
pub struct Replay<T> {
    /// Every fully-validated, decoded record, in append order.
    pub records: Vec<T>,
    /// Byte offset of the end of the last intact record; the file is
    /// truncated here before appending resumes.
    pub keep_len: u64,
    /// Whether a torn or corrupt tail follows the intact prefix.
    pub truncated: bool,
}

/// Reads and validates the journal at `path`, decoding each intact
/// payload with `decode`. `Ok(None)` when the file does not exist
/// (first boot); an error when it exists but is not a `magic` journal
/// at a known version — the caller must not overwrite it.
pub fn read<T>(
    path: &Path,
    magic: &[u8; 8],
    mut decode: impl FnMut(&[u8]) -> Option<T>,
) -> io::Result<Option<Replay<T>>> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let name = String::from_utf8_lossy(magic);
    if bytes.len() < HEADER_LEN as usize || &bytes[..8] != magic {
        return Err(corrupt(format!("not a {name} journal (bad magic)")));
    }
    let version = read_u64(&bytes, 8);
    if version != FORMAT_VERSION {
        return Err(corrupt(format!(
            "{name} journal format {version} is not supported (expected {FORMAT_VERSION})"
        )));
    }
    let mut records = Vec::new();
    let mut offset = HEADER_LEN as usize;
    while bytes.len() - offset >= FRAME_LEN {
        let len = read_u64(&bytes, offset);
        // A length past the end of the file is a torn write, never an
        // allocation request.
        if len > (bytes.len() - offset - FRAME_LEN) as u64 {
            break;
        }
        let end = offset + FRAME_LEN + len as usize;
        let payload = &bytes[offset + FRAME_LEN..end];
        if fnv1a(payload) != read_u64(&bytes, offset + 8) {
            break;
        }
        let Some(record) = decode(payload) else {
            break;
        };
        records.push(record);
        offset = end;
    }
    Ok(Some(Replay {
        records,
        keep_len: offset as u64,
        truncated: offset < bytes.len(),
    }))
}

/// An open journal file, positioned for appends.
#[derive(Debug)]
pub struct Journal {
    magic: &'static [u8; 8],
    path: PathBuf,
    file: File,
    size: u64,
}

impl Journal {
    /// Creates a fresh `magic` journal (header only), truncating
    /// whatever was at `path`.
    pub fn create(path: &Path, magic: &'static [u8; 8]) -> io::Result<Journal> {
        let mut file = File::create(path)?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(magic);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        file.write_all(&header)?;
        Ok(Journal {
            magic,
            path: path.to_path_buf(),
            file,
            size: HEADER_LEN,
        })
    }

    /// Opens an existing journal for appending, first truncating any
    /// torn tail past `keep_len` (as reported by [`read`]).
    pub fn open_for_append(
        path: &Path,
        magic: &'static [u8; 8],
        keep_len: u64,
    ) -> io::Result<Journal> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(keep_len)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Journal {
            magic,
            path: path.to_path_buf(),
            file,
            size: keep_len,
        })
    }

    /// Appends one record with a single `write_all`, so a crash mid-call
    /// leaves at most one torn tail for [`read`] to discard.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let mut record = Vec::with_capacity(FRAME_LEN + payload.len());
        record.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        record.extend_from_slice(&fnv1a(payload).to_le_bytes());
        record.extend_from_slice(payload);
        self.file.write_all(&record)?;
        self.size += record.len() as u64;
        Ok(())
    }

    /// Compaction: atomically replaces the whole journal with a header
    /// plus exactly `payloads` (a snapshot of the live state), via a
    /// temp sibling and a rename. Appends continue in the new file.
    pub fn rewrite<P: AsRef<[u8]>>(&mut self, payloads: &[P]) -> io::Result<()> {
        let mut tmp = self.path.as_os_str().to_owned();
        tmp.push(".tmp");
        let mut replacement = Journal::create(Path::new(&tmp), self.magic)?;
        for payload in payloads {
            replacement.append(payload.as_ref())?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // The replacement's handle follows its inode to the journal's
        // path; the old handle points at the unlinked file and drops.
        replacement.path = std::mem::take(&mut self.path);
        *self = replacement;
        Ok(())
    }

    /// Current journal size in bytes (header + intact records).
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 8] = b"TGPTESTJ";

    fn temp_path(tag: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("tgp-journal-{tag}-{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn raw(path: &Path) -> Option<Replay<Vec<u8>>> {
        read(path, MAGIC, |p| Some(p.to_vec())).unwrap()
    }

    fn payloads(replay: &Replay<Vec<u8>>) -> Vec<&[u8]> {
        replay.records.iter().map(Vec::as_slice).collect()
    }

    /// Writes a fresh journal holding `records`; returns the file bytes
    /// and the end offset of each record.
    fn journal_of(path: &Path, records: &[&[u8]]) -> (Vec<u8>, Vec<usize>) {
        let mut journal = Journal::create(path, MAGIC).unwrap();
        let mut ends = Vec::new();
        for record in records {
            journal.append(record).unwrap();
            ends.push(journal.size() as usize);
        }
        (std::fs::read(path).unwrap(), ends)
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325); // offset basis
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn append_and_read_round_trip() {
        let path = temp_path("round-trip");
        let mut journal = Journal::create(&path, MAGIC).unwrap();
        let records: Vec<String> = (0..5).map(|i| format!("record-{i}")).collect();
        for record in &records {
            journal.append(record.as_bytes()).unwrap();
        }
        let replay = raw(&path).expect("file exists");
        assert!(!replay.truncated);
        assert_eq!(replay.keep_len, journal.size());
        let expected: Vec<&[u8]> = records.iter().map(|r| r.as_bytes()).collect();
        assert_eq!(payloads(&replay), expected);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_first_boot() {
        assert!(raw(&temp_path("missing")).is_none());
    }

    #[test]
    fn torn_tail_is_trimmed_and_appends_resume() {
        let path = temp_path("torn");
        let (full, ends) = journal_of(&path, &[b"register g1", b"delete g1"]);
        // Tear the last record mid-payload, as kill -9 mid-write would.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let replay = raw(&path).unwrap();
        assert_eq!(payloads(&replay), [b"register g1".as_slice()]);
        assert!(replay.truncated);
        assert_eq!(replay.keep_len as usize, ends[0]);
        // Re-opening truncates the tail and appends cleanly after it.
        let mut journal = Journal::open_for_append(&path, MAGIC, replay.keep_len).unwrap();
        journal.append(b"delete g1 again").unwrap();
        let replay = raw(&path).unwrap();
        assert!(!replay.truncated);
        assert_eq!(
            payloads(&replay),
            [b"register g1".as_slice(), b"delete g1 again"]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_checksum_and_absurd_length_stop_at_the_last_good_record() {
        let path = temp_path("corrupt");
        let (full, ends) = journal_of(&path, &[b"first", b"second"]);
        // Flip a payload byte in the second record: checksum mismatch.
        let mut flipped = full.clone();
        *flipped.last_mut().unwrap() ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        let replay = raw(&path).unwrap();
        assert_eq!(payloads(&replay), [b"first".as_slice()]);
        assert!(replay.truncated);
        assert_eq!(replay.keep_len as usize, ends[0]);
        // An absurd length field is a torn write, not an allocation.
        let mut hostile = full[..ends[0]].to_vec();
        hostile.extend_from_slice(&u64::MAX.to_le_bytes());
        hostile.extend_from_slice(&[0u8; 8]);
        std::fs::write(&path, &hostile).unwrap();
        let replay = raw(&path).unwrap();
        assert_eq!(payloads(&replay), [b"first".as_slice()]);
        assert!(replay.truncated);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn undecodable_record_ends_the_intact_prefix() {
        let path = temp_path("undecodable");
        let (_, ends) = journal_of(&path, &[b"ok", b"bad", b"ok"]);
        let replay = read(&path, MAGIC, |p| (p != b"bad").then(|| p.to_vec()))
            .unwrap()
            .unwrap();
        assert_eq!(payloads(&replay), [b"ok".as_slice()]);
        assert!(replay.truncated);
        assert_eq!(replay.keep_len as usize, ends[0]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_short_and_future_files_are_errors_not_overwrites() {
        let path = temp_path("foreign");
        let mut future = MAGIC.to_vec();
        future.extend_from_slice(&99u64.to_le_bytes());
        let mut other_store = b"TGPOTHER".to_vec();
        other_store.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        for bytes in [
            b"definitely not a journal, well past sixteen bytes".to_vec(),
            b"short".to_vec(),
            future,
            other_store,
        ] {
            std::fs::write(&path, &bytes).unwrap();
            assert!(read(&path, MAGIC, |p| Some(p.to_vec())).is_err());
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "never touched");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rewrite_compacts_and_keeps_accepting_appends() {
        let path = temp_path("rewrite");
        let mut journal = Journal::create(&path, MAGIC).unwrap();
        for i in 0..50 {
            journal.append(format!("register g{i}").as_bytes()).unwrap();
        }
        let before = journal.size();
        journal.rewrite(&["snapshot"]).unwrap();
        assert!(journal.size() < before);
        assert_eq!(journal.path(), path);
        // Appends after a rewrite land in the new file.
        journal.append(b"register g51").unwrap();
        let replay = raw(&path).unwrap();
        assert!(!replay.truncated);
        assert_eq!(replay.keep_len, journal.size());
        assert_eq!(payloads(&replay), [b"snapshot".as_slice(), b"register g51"]);
        std::fs::remove_file(&path).unwrap();
    }

    const THREE: [&[u8]; 3] = [b"alpha", b"bravo-bravo", b"charlie-charlie-charlie"];

    /// A kill at any byte of the file — mid-header, mid-frame,
    /// mid-payload — replays exactly the records that were whole at the
    /// cut, and appends resume right after them.
    #[test]
    fn a_cut_at_every_byte_offset_replays_exactly_the_whole_records() {
        let path = temp_path("every-cut");
        let (full, ends) = journal_of(&path, &THREE);
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            if cut < HEADER_LEN as usize {
                // A torn header is no journal at all: refused, never
                // trusted or overwritten.
                assert!(
                    read(&path, MAGIC, |p| Some(p.to_vec())).is_err(),
                    "cut {cut}"
                );
                continue;
            }
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            let replay = raw(&path).unwrap();
            assert_eq!(payloads(&replay), THREE[..whole], "cut {cut}");
            let keep = if whole == 0 {
                HEADER_LEN as usize
            } else {
                ends[whole - 1]
            };
            assert_eq!(replay.keep_len as usize, keep, "cut {cut}");
            assert_eq!(replay.truncated, cut != keep, "cut {cut}");

            let mut journal = Journal::open_for_append(&path, MAGIC, replay.keep_len).unwrap();
            journal.append(b"after").unwrap();
            let resumed = raw(&path).unwrap();
            assert!(!resumed.truncated, "cut {cut}");
            let mut expected = THREE[..whole].to_vec();
            expected.push(b"after");
            assert_eq!(payloads(&resumed), expected, "cut {cut}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// One flipped byte anywhere past the header ends the replay at or
    /// before the record it hit, and everything replayed is original.
    #[test]
    fn a_flip_at_every_byte_ends_replay_at_or_before_its_record() {
        let path = temp_path("every-flip");
        let (full, ends) = journal_of(&path, &THREE);
        for at in HEADER_LEN as usize..full.len() {
            let mut bytes = full.clone();
            bytes[at] ^= 0xff;
            std::fs::write(&path, &bytes).unwrap();
            let hit = ends
                .iter()
                .position(|&end| at < end)
                .expect("byte in a record");
            let replay = raw(&path).unwrap();
            assert!(replay.records.len() <= hit, "flip at {at}");
            assert_eq!(
                payloads(&replay),
                THREE[..replay.records.len()],
                "flip at {at}"
            );
            assert!(replay.truncated, "flip at {at}");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
