//! The codec pass: the messages a traced trial delivered are framed,
//! wrapped in mesh envelopes and decoded again, in batches, timing each
//! direction apart.

use std::hint::black_box;
use std::time::Instant;

use ftc_mesh::wire::{encode_envelope, EnvelopeDecoder};
use ftc_net::frame::Frame;
use ftc_sim::ids::{NodeId, Round};
use ftc_sim::payload::Wire;

/// Messages encoded before the batch is decoded; keeps the buffer small.
const BATCH: usize = 4096;
/// Read burst fed to the decoder, as a socket read would deliver it.
const BURST: usize = 64 * 1024;

/// Nanoseconds per frame to encode and to decode `msgs`, or an error if a
/// frame does not come back as it went in.
pub fn pass<M: Wire>(msgs: &[(NodeId, Round, M)]) -> Result<(f64, f64), String> {
    let (mut enc_s, mut dec_s) = (0.0, 0.0);
    let mut buf = Vec::new();
    for batch in msgs.chunks(BATCH) {
        buf.clear();
        let start = Instant::now();
        for (seq, (dst, round, msg)) in batch.iter().enumerate() {
            // A fresh payload buffer per frame, as `ftc_net::core` builds them.
            let mut payload = Vec::new();
            msg.encode(&mut payload);
            let frame = Frame {
                height: 0,
                round: *round,
                src: NodeId(0),
                seq: seq as u32,
                payload,
            };
            encode_envelope(*dst, &frame, &mut buf);
        }
        enc_s += start.elapsed().as_secs_f64();

        let start = Instant::now();
        let mut decoder = EnvelopeDecoder::new();
        let mut seen = 0usize;
        for burst in buf.chunks(BURST) {
            decoder.extend(burst);
            while let Some((dst, frame)) = decoder.next().map_err(|e| e.to_string())? {
                let msg = M::decode(&frame.payload).ok_or("undecodable payload")?;
                let want = &batch[seen];
                if dst != want.0 || frame.round != want.1 || frame.seq != seen as u32 {
                    return Err(format!("frame {seen} of a batch came back altered"));
                }
                black_box(msg);
                seen += 1;
            }
        }
        dec_s += start.elapsed().as_secs_f64();
        if seen != batch.len() || decoder.pending_bytes() != 0 {
            return Err(format!("decoded {seen} of {} frames", batch.len()));
        }
    }
    let per = 1e9 / msgs.len().max(1) as f64;
    Ok((enc_s * per, dec_s * per))
}
