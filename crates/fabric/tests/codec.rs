//! Capsule codec properties: round-trips are byte-identical, and every
//! damaged frame is rejected with a typed [`CodecError`] — the wire
//! never panics and never yields a capsule it was not sent.

use ccnvme_fabric::capsule::{
    decode_ploc_verdict, decode_request, decode_response, encode_ploc_verdict, encode_request,
    encode_response, Capsule, PlocOpWire, Request, Response, ShardWrite, Status, SyncKind, MAGIC,
    MAX_DATA, MAX_PATH, MAX_PREPARE_WRITES,
};
use ccnvme_fabric::CodecError;
use ccnvme_obs::TraceCtx;
use ccnvme_ploc::{OpResult, RecoverVerdict};
use mqfs::FsError;
use proptest::prelude::*;

/// Builds one of every request shape from generic scalar inputs.
fn build_capsule(sel: u8, a: u64, b: u64, flag: bool, data: Vec<u8>) -> Capsule {
    let path = format!("/d{}/f{}", a % 7, b % 23);
    match sel % 17 {
        0 => Capsule::Hello {
            client_id: a,
            resume: flag,
        },
        1 => Capsule::AllocTx,
        2 => Capsule::BlkRead { lba: b },
        3 => Capsule::FsResolve { path },
        4 => Capsule::FsCreate { path },
        5 => Capsule::FsWrite {
            ino: a,
            offset: b,
            data,
        },
        6 => Capsule::FsRead {
            ino: a,
            offset: b,
            len: (b % 65_536) as u32,
        },
        7 => Capsule::FsSync {
            ino: a,
            mode: match b % 4 {
                0 => SyncKind::Fsync,
                1 => SyncKind::Fdatasync,
                2 => SyncKind::Fatomic,
                _ => SyncKind::Fdataatomic,
            },
        },
        8 => Capsule::FsStat { ino: a },
        9 => Capsule::Metrics,
        10 => Capsule::PlocOp {
            seq: (a % u32::MAX as u64) as u32,
            op: match b % 6 {
                0 => PlocOpWire::Push(a),
                1 => PlocOpWire::Pop,
                2 => PlocOpWire::Enqueue(a ^ b),
                3 => PlocOpWire::Dequeue,
                4 => PlocOpWire::Insert {
                    key: a as u32,
                    val: b as u32,
                },
                _ => PlocOpWire::Lookup { key: b as u32 },
            },
        },
        11 => Capsule::PlocRecover,
        12 => Capsule::TxPrepare {
            gtx: a,
            writes: shard_writes(b, data),
        },
        13 => Capsule::TxCommit {
            tx_id: a,
            writes: shard_writes(b, data),
        },
        14 => Capsule::TxDecide {
            gtx: a,
            commit: flag,
        },
        15 => Capsule::TxVerdict {
            gtx: b,
            commit: flag,
        },
        _ => Capsule::Bye,
    }
}

/// `1 + b % MAX_PREPARE_WRITES` member writes, the first carrying `data`.
fn shard_writes(b: u64, data: Vec<u8>) -> Vec<ShardWrite> {
    let mut writes: Vec<ShardWrite> = (0..b % MAX_PREPARE_WRITES as u64)
        .map(|j| ShardWrite {
            lba: b ^ j,
            data: vec![j as u8; j as usize],
        })
        .collect();
    writes.insert(0, ShardWrite { lba: b, data });
    writes
}

fn build_status(sel: u8) -> Status {
    match sel % 18 {
        0 => Status::Ok,
        1 => Status::Fs(FsError::NotFound),
        2 => Status::Fs(FsError::Exists),
        3 => Status::Fs(FsError::NotADirectory),
        4 => Status::Fs(FsError::IsADirectory),
        5 => Status::Fs(FsError::NotEmpty),
        6 => Status::Fs(FsError::NoSpace),
        7 => Status::Fs(FsError::InvalidName),
        8 => Status::Fs(FsError::FileTooBig),
        9 => Status::Fs(FsError::Io),
        10 => Status::Fs(FsError::ReadOnly),
        11 => Status::BioError,
        12 => Status::BioMedia,
        13 => Status::BioTimeout,
        14 => Status::BioBusy,
        15 => Status::Protocol,
        16 => Status::TxOverflow,
        _ => Status::NotSupported,
    }
}

proptest! {
    /// encode → decode → re-encode is the identity on bytes for every
    /// request shape.
    #[test]
    fn request_roundtrip_is_byte_identical(
        sel in any::<u8>(),
        cid in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
        flag in any::<bool>(),
        data in proptest::collection::vec(any::<u8>(), 0..2_048),
    ) {
        // Non-zero trace context derived from the scalars: the v2 ctx
        // field must survive the round trip like every other field.
        let ctx = TraceCtx { trace_id: a ^ b, span: a as u32, origin: b as u32 };
        let req = Request { cid, op: build_capsule(sel, a, b, flag, data), ctx };
        let wire = encode_request(&req);
        let back = decode_request(&wire).expect("valid frame decodes");
        prop_assert_eq!(&back, &req);
        prop_assert_eq!(encode_request(&back), wire);
    }

    /// Same for responses, across every status.
    #[test]
    fn response_roundtrip_is_byte_identical(
        sel in any::<u8>(),
        cid in any::<u64>(),
        val in any::<u64>(),
        aux in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 0..2_048),
    ) {
        let resp = Response { cid, status: build_status(sel), val, aux, data };
        let wire = encode_response(&resp);
        let back = decode_response(&wire).expect("valid frame decodes");
        prop_assert_eq!(&back, &resp);
        prop_assert_eq!(encode_response(&back), wire);
    }

    /// Every proper prefix of a valid frame is rejected — as a
    /// truncation when the frame loses its checksum, as a checksum
    /// mismatch when enough survives to check.
    #[test]
    fn truncated_frames_are_rejected_typed(
        sel in any::<u8>(),
        cid in any::<u64>(),
        a in any::<u64>(),
        cut in any::<u64>(),
    ) {
        let req = Request::new(cid, build_capsule(sel, a, a ^ 0x5a5a, false, vec![7; 32]));
        let wire = encode_request(&req);
        let cut = (cut as usize) % wire.len(); // a strict prefix
        let err = decode_request(&wire[..cut]).expect_err("prefix must not decode");
        prop_assert!(
            matches!(err, CodecError::Truncated | CodecError::BadChecksum),
            "unexpected rejection {err:?} at cut {cut}"
        );
    }

    /// Flipping any single byte of a valid frame is rejected with a
    /// typed error — never a panic, never a silently different capsule.
    #[test]
    fn corrupt_frames_are_rejected_typed(
        sel in any::<u8>(),
        cid in any::<u64>(),
        a in any::<u64>(),
        pos in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let req = Request::new(cid, build_capsule(sel, a, a.rotate_left(13), true, vec![3; 64]));
        let mut wire = encode_request(&req);
        let pos = (pos as usize) % wire.len();
        wire[pos] ^= flip;
        let err = decode_request(&wire).expect_err("corrupt frame must not decode");
        // Damage in the magic reports BadMagic or version skew; anywhere
        // else the checksum catches it.
        prop_assert!(
            matches!(
                err,
                CodecError::BadChecksum
                    | CodecError::BadMagic
                    | CodecError::BadVersion(_)
            ),
            "unexpected rejection {err:?} at byte {pos}"
        );
    }
}

/// A frame from some other protocol — wrong magic — is identified as
/// foreign, not as a damaged fabric frame.
#[test]
fn foreign_magic_reports_bad_magic() {
    let req = Request::new(9, Capsule::AllocTx);
    let mut wire = encode_request(&req);
    let foreign = (MAGIC ^ 0xdead_beef).to_le_bytes();
    wire[..4].copy_from_slice(&foreign);
    assert_eq!(decode_request(&wire), Err(CodecError::BadMagic));
}

/// The empty buffer and sub-header runts are truncations.
#[test]
fn runt_frames_report_truncated() {
    assert_eq!(decode_request(&[]), Err(CodecError::Truncated));
    assert_eq!(decode_request(&[0xcc; 10]), Err(CodecError::Truncated));
    assert_eq!(decode_response(&[]), Err(CodecError::Truncated));
}

/// A request frame fed to the response decoder (and vice versa) is a
/// typed opcode rejection.
#[test]
fn cross_decoding_reports_bad_opcode() {
    let req_wire = encode_request(&Request::new(1, Capsule::Metrics));
    assert!(matches!(
        decode_response(&req_wire),
        Err(CodecError::BadOpcode(_))
    ));
    let resp_wire = encode_response(&Response::ok_val(1, 42));
    assert!(matches!(
        decode_request(&resp_wire),
        Err(CodecError::BadOpcode(_))
    ));
}

/// A `PlocOp` frame whose operation kind byte is not a known ploc
/// operation is a typed rejection, distinct from frame damage.
#[test]
fn unknown_ploc_kind_reports_bad_ploc_op() {
    let wire = encode_request(&Request::new(
        3,
        Capsule::PlocOp {
            seq: 1,
            op: PlocOpWire::Pop,
        },
    ));
    // The kind byte sits after header (14) + trace context (16) +
    // seq (4); rewrite it to an unassigned kind and re-seal the checksum.
    let mut body: Vec<u8> = wire[..wire.len() - 8].to_vec();
    body[14 + 16 + 4] = 0x7f;
    let sum = u64::from(ccnvme_obs::seal::crc32c(&body));
    body.extend_from_slice(&sum.to_le_bytes());
    assert_eq!(decode_request(&body), Err(CodecError::BadPlocOp(0x7f)));
}

/// A `TX_COMMIT` round-trips, and one carrying more member writes than
/// an intent slot holds is a typed overflow — the cap `TX_PREPARE` has.
#[test]
fn tx_commit_round_trips_and_is_capped_like_a_prepare() {
    let writes = |n: u64| -> Vec<ShardWrite> {
        (0..n)
            .map(|lba| ShardWrite {
                lba,
                data: vec![lba as u8; 64],
            })
            .collect()
    };
    let ok = Request::new(
        4,
        Capsule::TxCommit {
            tx_id: 77,
            writes: writes(MAX_PREPARE_WRITES as u64),
        },
    );
    assert_eq!(decode_request(&encode_request(&ok)), Ok(ok));
    let over = |op| decode_request(&encode_request(&Request::new(5, op)));
    let overflow = Err(CodecError::Overflow {
        len: MAX_PREPARE_WRITES as u32 + 1,
        max: MAX_PREPARE_WRITES as u32,
    });
    let nine = writes(MAX_PREPARE_WRITES as u64 + 1);
    assert_eq!(
        over(Capsule::TxCommit {
            tx_id: 78,
            writes: nine.clone(),
        }),
        overflow
    );
    assert_eq!(
        over(Capsule::TxPrepare {
            gtx: 78,
            writes: nine,
        }),
        overflow
    );
}

/// `Capsule::check_caps` refuses exactly what the decoder would: too
/// many member writes, an oversized payload, an overlong path.
#[test]
fn check_caps_refuses_what_the_decoder_refuses() {
    let commit = |n: usize, len: usize| Capsule::TxCommit {
        tx_id: 1,
        writes: vec![
            ShardWrite {
                lba: 0,
                data: vec![0; len],
            };
            n
        ],
    };
    let overflow = |len: u32, max: u32| Err(CodecError::Overflow { len, max });
    let max = MAX_PREPARE_WRITES as usize;
    assert_eq!(commit(max, 4_096).check_caps(), Ok(()));
    assert_eq!(commit(max + 1, 0).check_caps(), overflow(9, 8));
    let big = MAX_DATA as usize + 1;
    assert_eq!(
        commit(1, big).check_caps(),
        overflow(MAX_DATA + 1, MAX_DATA)
    );
    let write = Capsule::FsWrite {
        ino: 1,
        offset: 0,
        data: vec![0; big],
    };
    assert_eq!(write.check_caps(), overflow(MAX_DATA + 1, MAX_DATA));
    let path = "/".repeat(MAX_PATH as usize + 1);
    assert_eq!(
        Capsule::FsCreate { path }.check_caps(),
        overflow(MAX_PATH + 1, MAX_PATH)
    );
    for op in [commit(max + 1, 0), write] {
        let refused = op.check_caps().expect_err("over a cap");
        assert_eq!(
            decode_request(&encode_request(&Request::new(1, op))),
            Err(refused)
        );
    }
}

/// Opcodes 0x03 and 0x11 are unassigned: a frame carrying either is a
/// typed opcode rejection.
#[test]
fn retired_opcode_3_is_a_bad_opcode() {
    for opcode in [0x03, 0x11] {
        let wire = encode_request(&Request::new(3, Capsule::AllocTx));
        // The opcode byte follows magic (4) + version (1); re-seal the
        // checksum over the rewritten header.
        let mut body: Vec<u8> = wire[..wire.len() - 8].to_vec();
        body[5] = opcode;
        let sum = u64::from(ccnvme_obs::seal::crc32c(&body));
        body.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(decode_request(&body), Err(CodecError::BadOpcode(opcode)));
    }
}

/// Trailing garbage after a well-formed body fails the checksum (the
/// checksum covers everything before it, so appended bytes shift it).
#[test]
fn appended_bytes_are_rejected() {
    let mut wire = encode_request(&Request::new(2, Capsule::FsStat { ino: 5 }));
    wire.push(0);
    assert!(decode_request(&wire).is_err());
}

/// Every ploc recovery verdict shape — `Completed` with each result
/// tag — survives the `PlocRecover` response's `(val, aux)` packing,
/// and an unknown verdict or result tag is refused.
#[test]
fn ploc_verdicts_round_trip_through_val_and_aux() {
    let results = [
        OpResult::Done,
        OpResult::Value(u64::MAX - 3),
        OpResult::Empty,
        OpResult::NotFound,
        OpResult::Full,
    ];
    let mut verdicts = vec![
        RecoverVerdict::Idle { completed: 0 },
        RecoverVerdict::Idle {
            completed: u32::MAX,
        },
        RecoverVerdict::NotExecuted { seq: 7 },
    ];
    verdicts.extend(results.map(|result| RecoverVerdict::Completed { seq: 41, result }));
    for verdict in verdicts {
        let (val, aux) = encode_ploc_verdict(verdict);
        assert_eq!(decode_ploc_verdict(val, aux), Some(verdict));
    }
    // aux = verdict | result_tag << 8 | seq << 16; val = result payload.
    let completed = RecoverVerdict::Completed {
        seq: 3,
        result: OpResult::Value(9),
    };
    assert_eq!(encode_ploc_verdict(completed), (9, 1 | 1 << 8 | 3 << 16));
    assert_eq!(decode_ploc_verdict(0, 3), None, "unknown verdict");
    assert_eq!(decode_ploc_verdict(0, 1 | 5 << 8), None, "unknown result");
}
