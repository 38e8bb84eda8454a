//! Corruption-geometry tests for the chain journal's folded state: the
//! fold file and the manifest that commits it (`drams_store::persist`).
//!
//! Every record boundary of a real fold file is damaged in turn, the file
//! is cut at every length, and the manifest is cut and re-pointed; each
//! time recovery must refuse with a typed error that names the file and
//! the offset — never a panic, never a node rebuilt from half a journal.
//!
//! The geometry is read from the documented formats, not from the engine:
//! a fold file is a run of `len u32 | crc32 u32 | payload` frames, one
//! for every record journaled before the last compaction, and a manifest
//! payload is `layout u8 | fold_len u64 | fold_records u64` and nothing
//! more.

use drams_chain::chain::ChainConfig;
use drams_chain::contract::KvStoreContract;
use drams_chain::node::Node;
use drams_crypto::schnorr::Keypair;
use drams_store::backend::{Durability, FsBackend};
use drams_store::persist::{compact_node_journal, recover_node, WalJournal};
use drams_store::segment::FRAME_LEN;
use drams_store::wal::{Wal, WalConfig, FOLD_FILE, SNAPSHOT_FILE};
use drams_store::StoreError;
use std::cell::RefCell;
use std::fs;
use std::path::{Path, PathBuf};
use std::rc::Rc;

const CONFIG: WalConfig = WalConfig {
    segment_records: 4,
    durability: Durability::Flushed,
};
/// Snapshot file header: magic, version, sequence, length, checksum.
const SNAPSHOT_HEADER_LEN: usize = 24;
const MANIFEST_LEN: usize = 17;

fn chain_config() -> ChainConfig {
    ChainConfig {
        initial_difficulty_bits: 0,
        retarget_interval: 0,
        max_block_txs: 2,
        ..ChainConfig::default()
    }
}

fn test_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("drams-fold-geometry-{tag}-{}", std::process::id()))
}

fn open_wal(dir: &Path) -> Wal {
    Wal::open(Box::new(FsBackend::open(dir).expect("dir")), CONFIG).expect("log opens")
}

fn recover(dir: &Path) -> Result<Node, StoreError> {
    recover_node(
        &open_wal(dir),
        chain_config(),
        vec![Box::new(KvStoreContract)],
    )
}

/// A journal compacted twice — eighteen records in the fold file, three
/// of them transactions still pending, and one live record — as the
/// files it left, with the tip hash the journal describes.
struct Pristine {
    files: Vec<(String, Vec<u8>)>,
    tip: drams_crypto::sha256::Digest,
}

impl Pristine {
    /// The one journal every test damages its own copy of.
    fn get() -> &'static Pristine {
        static PRISTINE: std::sync::OnceLock<Pristine> = std::sync::OnceLock::new();
        PRISTINE.get_or_init(Pristine::build)
    }

    fn build() -> Pristine {
        let dir = test_dir("master");
        fs::remove_dir_all(&dir).ok();
        let wal = Rc::new(RefCell::new(open_wal(&dir)));
        let mut node = Node::new(chain_config());
        node.register_contract(Box::new(KvStoreContract));
        node.set_journal(Box::new(WalJournal::new(wal.clone())));
        let kp = Keypair::from_seed(b"fold-geometry");
        let mut puts = 0;
        let mut put = |node: &mut Node| {
            // Payloads of different lengths, so frames are not all alike.
            puts += 1;
            node.submit_call(&kp, "kvstore", "put", vec![puts as u8; 3 + 5 * puts])
                .expect("submit");
        };
        // Two transactions to a block and more than that submitted: a
        // backlog stays pending across both compactions.
        for _ in 0..7 {
            put(&mut node);
        }
        for t in 1..=2 {
            node.mine_block(t).expect("mine");
        }
        compact_node_journal(&mut wal.borrow_mut()).expect("first compaction");
        for t in 3..=5 {
            put(&mut node);
            put(&mut node);
            node.mine_block(t).expect("mine");
        }
        assert_eq!(
            compact_node_journal(&mut wal.borrow_mut()).expect("second compaction"),
            (9 + 9, 9 + 9),
        );
        put(&mut node);
        let tip = node.chain().tip_hash();
        drop(node);
        drop(wal);
        let mut files = Vec::new();
        for entry in fs::read_dir(&dir).expect("list") {
            let name = entry
                .expect("entry")
                .file_name()
                .into_string()
                .expect("utf-8");
            files.push((name.clone(), fs::read(dir.join(&name)).expect("read")));
        }
        fs::remove_dir_all(&dir).ok();
        let pristine = Pristine { files, tip };
        assert_eq!(pristine.fold_frames().len(), 18, "every record folded");
        pristine
    }

    fn file(&self, name: &str) -> &[u8] {
        let (_, bytes) = self.files.iter().find(|(n, _)| n == name).expect("file");
        bytes
    }

    /// `(frame offset, payload length)` of every fold record, read off
    /// the length words.
    fn fold_frames(&self) -> Vec<(usize, usize)> {
        let bytes = self.file(FOLD_FILE);
        let mut frames = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            let len = u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            frames.push((at, len));
            at += FRAME_LEN + len;
        }
        assert_eq!(at, bytes.len(), "the fold file is whole frames");
        frames
    }

    /// The manifest payload, inside its snapshot file.
    fn manifest(&self) -> &[u8] {
        &self.file(SNAPSHOT_FILE)[SNAPSHOT_HEADER_LEN..]
    }

    /// Restores the files into `dir`, then lets `damage` at them.
    fn restore(&self, dir: &Path, damage: impl FnOnce(&Path)) {
        fs::remove_dir_all(dir).ok();
        fs::create_dir_all(dir).expect("case dir");
        for (name, bytes) in &self.files {
            fs::write(dir.join(name), bytes).expect("restore");
        }
        damage(dir);
    }

    /// Restores the files with the manifest payload replaced (behind a
    /// header whose length and checksum are right for it).
    fn restore_with_manifest(&self, dir: &Path, payload: &[u8]) {
        self.restore(dir, |_| {});
        let mut wal = open_wal(dir);
        let (seq, _) = wal.read_snapshot().expect("read").expect("manifest");
        wal.write_snapshot(seq, payload).expect("rewrite");
    }
}

fn expect_corrupt(result: Result<Node, StoreError>, file: &str, offset: usize, context: &str) {
    match result {
        Err(StoreError::Corrupt {
            file: blamed,
            offset: at,
            ..
        }) => {
            assert_eq!(blamed, file, "{context}: wrong file blamed");
            assert_eq!(at, offset as u64, "{context}: wrong offset blamed");
        }
        other => panic!("{context}: expected Corrupt, got {:?}", other.map(|_| ())),
    }
}

fn expect_codec(result: Result<Node, StoreError>, names: &[&str], context: &str) {
    match result {
        Err(StoreError::Codec(reason)) => {
            for name in names {
                assert!(
                    reason.contains(name),
                    "{context}: `{name}` not in: {reason}"
                );
            }
        }
        other => panic!("{context}: expected Codec, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn pristine_journal_recovers() {
    let pristine = Pristine::get();
    let dir = test_dir("pristine-case");
    pristine.restore(&dir, |_| {});
    let node = recover(&dir).expect("recovers");
    assert_eq!(node.chain().tip_hash(), pristine.tip);
    assert_eq!(
        node.mempool_len(),
        4,
        "three pending since the folds, and the live one"
    );
    fs::remove_dir_all(&dir).ok();
}

/// A flipped byte in the length word, the checksum word, or either end
/// of the payload of every fold record: recovery blames that record's
/// frame. (A frame cannot be a torn tail here — the manifest commits the
/// length, so nothing inside it is still being written.)
#[test]
fn flip_at_every_fold_record_boundary() {
    let pristine = Pristine::get();
    let dir = test_dir("flip-case");
    for (i, (frame, len)) in pristine.fold_frames().into_iter().enumerate() {
        let flips = [
            ("length high byte", frame),
            ("length low byte", frame + 3),
            ("crc word", frame + 4),
            ("first payload byte", frame + FRAME_LEN),
            ("last payload byte", frame + FRAME_LEN + len - 1),
        ];
        for (what, position) in flips {
            let context = format!("fold record {i} ({what} @ {position})");
            pristine.restore(&dir, |dir| {
                let mut bytes = pristine.file(FOLD_FILE).to_vec();
                bytes[position] ^= 0x41;
                fs::write(dir.join(FOLD_FILE), bytes).expect("write flipped");
            });
            expect_corrupt(recover(&dir), FOLD_FILE, frame, &context);
        }
    }
    fs::remove_dir_all(&dir).ok();
}

/// A fold file shorter than the manifest commits — cut at every length,
/// or gone — is blamed at the byte where it ends, by recovery and by the
/// next compaction alike.
#[test]
fn every_prefix_of_the_fold_file_is_refused() {
    let pristine = Pristine::get();
    let dir = test_dir("fold-prefix-case");
    let fold = pristine.file(FOLD_FILE);
    for cut in 0..fold.len() {
        pristine.restore(&dir, |dir| {
            fs::write(dir.join(FOLD_FILE), &fold[..cut]).expect("cut");
        });
        expect_corrupt(recover(&dir), FOLD_FILE, cut, &format!("cut at {cut}"));
    }
    pristine.restore(&dir, |dir| {
        fs::write(dir.join(FOLD_FILE), &fold[..fold.len() / 2]).expect("cut");
    });
    match compact_node_journal(&mut open_wal(&dir)) {
        Err(StoreError::Corrupt { file, offset, .. }) => {
            assert_eq!((file.as_str(), offset), (FOLD_FILE, fold.len() as u64 / 2));
        }
        other => panic!("compaction over a short fold file: {other:?}"),
    }
    pristine.restore(&dir, |dir| {
        fs::remove_file(dir.join(FOLD_FILE)).expect("remove");
    });
    expect_corrupt(recover(&dir), FOLD_FILE, 0, "fold file gone");
    fs::remove_dir_all(&dir).ok();
}

/// Bytes past the committed length are what a compaction that died
/// before its manifest write leaves; they are not an error, whatever
/// they hold.
#[test]
fn bytes_past_the_committed_length_are_ignored() {
    let pristine = Pristine::get();
    let dir = test_dir("past-case");
    pristine.restore(&dir, |dir| {
        let mut bytes = pristine.file(FOLD_FILE).to_vec();
        bytes.extend_from_slice(&[0xEE; 37]);
        fs::write(dir.join(FOLD_FILE), bytes).expect("extend");
    });
    assert_eq!(
        recover(&dir).expect("recovers").chain().tip_hash(),
        pristine.tip
    );
    fs::remove_dir_all(&dir).ok();
}

/// The manifest file cut at every length fails its own length or
/// checksum check.
#[test]
fn every_prefix_of_the_manifest_file_is_refused() {
    let pristine = Pristine::get();
    let dir = test_dir("manifest-prefix-case");
    let manifest = pristine.file(SNAPSHOT_FILE);
    for cut in 0..manifest.len() {
        pristine.restore(&dir, |dir| {
            fs::write(dir.join(SNAPSHOT_FILE), &manifest[..cut]).expect("cut");
        });
        let blamed = if cut < SNAPSHOT_HEADER_LEN { 0 } else { 16 };
        expect_corrupt(
            recover(&dir),
            SNAPSHOT_FILE,
            blamed,
            &format!("cut at {cut}"),
        );
    }
    fs::remove_dir_all(&dir).ok();
}

/// A manifest *payload* cut at every length, behind a header that is
/// right for it, is refused by name as shorter than its header; the whole
/// payload is well formed; a byte past it is refused by name too.
#[test]
fn every_prefix_of_the_manifest_payload_is_refused_or_well_formed() {
    let pristine = Pristine::get();
    let dir = test_dir("payload-prefix-case");
    let payload = pristine.manifest();
    assert_eq!(payload.len(), MANIFEST_LEN, "the header is the payload");
    for cut in 0..payload.len() {
        pristine.restore_with_manifest(&dir, &payload[..cut]);
        let context = format!("payload cut at {cut}");
        expect_codec(recover(&dir), &[SNAPSHOT_FILE, "header"], &context);
    }
    pristine.restore_with_manifest(&dir, payload);
    assert_eq!(
        recover(&dir).expect("recovers").chain().tip_hash(),
        pristine.tip
    );
    for trailing in [&[0][..], &[0xFF], &[7; 9]] {
        pristine.restore_with_manifest(&dir, &[payload, trailing].concat());
        let context = format!("{} trailing bytes", trailing.len());
        let names = [SNAPSHOT_FILE, &format!("{} bytes trail", trailing.len())];
        expect_codec(recover(&dir), &names, &context);
    }
    fs::remove_dir_all(&dir).ok();
}

/// A manifest that commits more of the fold file than there is, a length
/// inside a record, a record count the file does not bear out, or an
/// unknown layout.
#[test]
fn a_manifest_that_disagrees_with_the_fold_file_is_refused() {
    let pristine = Pristine::get();
    let dir = test_dir("disagree-case");
    let payload = pristine.manifest();
    let fold_len = pristine.file(FOLD_FILE).len();
    let with = |fold_len: u64, fold_records: u64| {
        let mut edited = payload.to_vec();
        edited[1..9].copy_from_slice(&fold_len.to_be_bytes());
        edited[9..17].copy_from_slice(&fold_records.to_be_bytes());
        edited
    };
    let frames = pristine.fold_frames();
    let (last, _) = *frames.last().expect("records");
    let records = frames.len() as u64;

    pristine.restore_with_manifest(&dir, &with(fold_len as u64 + 1, records));
    expect_corrupt(recover(&dir), FOLD_FILE, fold_len, "one byte too many");

    pristine.restore_with_manifest(&dir, &with(fold_len as u64 - 1, records));
    expect_corrupt(
        recover(&dir),
        FOLD_FILE,
        last,
        "length inside the last record",
    );

    pristine.restore_with_manifest(&dir, &with(fold_len as u64, records + 1));
    expect_corrupt(recover(&dir), FOLD_FILE, fold_len, "a record too few");

    let mut unknown = payload.to_vec();
    unknown[0] = 4;
    pristine.restore_with_manifest(&dir, &unknown);
    expect_codec(
        recover(&dir),
        &[SNAPSHOT_FILE, "layout 4"],
        "unknown layout",
    );
    fs::remove_dir_all(&dir).ok();
}
