//! Closed-loop client harness for `serve_session`.
//!
//! [`closed_loop`] returns a [`Feed`] (the session's `BufRead`) and a
//! [`Sink`] (its `Write`) sharing one [`Ledger`]. The feed releases
//! request line *n+1* only after the sink has seen the newline ending
//! reply *n*; asked early, it fails with `WouldBlock` instead. The
//! release of each line and the newline of its reply are both stamped,
//! so per-request latency is measured from outside the serve loop, on
//! the one thread that runs it. Each completed reply is handed to the
//! ledger's checker with the class of the request it answers.

use std::cell::RefCell;
use std::io::{self, BufRead, Read, Write};
use std::rc::Rc;
use std::time::Instant;

/// One request line and the class it is accounted under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Class index (caller-defined).
    pub class: usize,
    /// The protocol line, without its newline.
    pub line: String,
}

/// One answered request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answered {
    /// Class of the request.
    pub class: usize,
    /// Release of the request line to newline of its reply.
    pub latency_ns: u64,
}

/// Judges one reply, given the class of its request: `true` accepts.
type Checker = Box<dyn FnMut(usize, &str) -> bool>;

/// Shared state of one closed loop.
pub struct Ledger {
    released: u64,
    replied: u64,
    release_at: Option<Instant>,
    class: usize,
    reply: Vec<u8>,
    /// Every answered request, in order.
    pub answered: Vec<Answered>,
    /// Replies the checker rejected: `(class, request line, reply)`,
    /// capped at [`Ledger::KEEP_REJECTED`] examples.
    pub rejected: Vec<(usize, String, String)>,
    /// Total number of rejected replies.
    pub rejected_count: u64,
    last_line: String,
    check: Checker,
}

impl Ledger {
    /// Rejected replies kept verbatim for the report.
    pub const KEEP_REJECTED: usize = 5;

    /// Requests released to the session.
    pub fn released(&self) -> u64 {
        self.released
    }

    /// Replies completed by the session.
    pub fn replied(&self) -> u64 {
        self.replied
    }

    fn reply_done(&mut self, now: Instant) {
        self.replied += 1;
        if let Some(t) = self.release_at.take() {
            self.answered.push(Answered {
                class: self.class,
                latency_ns: u64::try_from(now.duration_since(t).as_nanos()).unwrap_or(u64::MAX),
            });
        }
        let text = String::from_utf8_lossy(&self.reply).into_owned();
        self.reply.clear();
        if !(self.check)(self.class, &text) {
            self.rejected_count += 1;
            if self.rejected.len() < Self::KEEP_REJECTED {
                self.rejected
                    .push((self.class, self.last_line.clone(), text));
            }
        }
    }
}

/// The session's input: releases one request at a time.
pub struct Feed<G> {
    ledger: Rc<RefCell<Ledger>>,
    next: G,
    buf: Vec<u8>,
    pos: usize,
}

/// The session's output: stamps and checks each reply.
pub struct Sink {
    ledger: Rc<RefCell<Ledger>>,
}

/// Build a closed loop over a request generator (`None` ends the
/// session) and a reply checker `(class, reply) -> accepted`.
pub fn closed_loop<G, C>(next: G, check: C) -> (Feed<G>, Sink, Rc<RefCell<Ledger>>)
where
    G: FnMut() -> Option<Request>,
    C: FnMut(usize, &str) -> bool + 'static,
{
    let ledger = Rc::new(RefCell::new(Ledger {
        released: 0,
        replied: 0,
        release_at: None,
        class: 0,
        reply: Vec::new(),
        answered: Vec::new(),
        rejected: Vec::new(),
        rejected_count: 0,
        last_line: String::new(),
        check: Box::new(check),
    }));
    let feed = Feed {
        ledger: Rc::clone(&ledger),
        next,
        buf: Vec::new(),
        pos: 0,
    };
    let sink = Sink {
        ledger: Rc::clone(&ledger),
    };
    (feed, sink, ledger)
}

impl<G: FnMut() -> Option<Request>> BufRead for Feed<G> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos < self.buf.len() {
            return Ok(&self.buf[self.pos..]);
        }
        let mut l = self.ledger.borrow_mut();
        if l.replied < l.released {
            return Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                format!(
                    "request {} asked for before reply {}",
                    l.released + 1,
                    l.released
                ),
            ));
        }
        let Some(req) = (self.next)() else {
            return Ok(&[]);
        };
        self.buf.clear();
        self.buf.extend_from_slice(req.line.as_bytes());
        self.buf.push(b'\n');
        self.pos = 0;
        l.released += 1;
        l.class = req.class;
        l.last_line = req.line;
        l.release_at = Some(Instant::now());
        Ok(&self.buf)
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.buf.len());
    }
}

impl<G: FnMut() -> Option<Request>> Read for Feed<G> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl Write for Sink {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let now = Instant::now();
        let mut l = self.ledger.borrow_mut();
        let mut rest = bytes;
        while let Some(i) = rest.iter().position(|&b| b == b'\n') {
            l.reply.extend_from_slice(&rest[..i]);
            l.reply_done(now);
            rest = &rest[i + 1..];
        }
        l.reply.extend_from_slice(rest);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script(lines: &[&str]) -> impl FnMut() -> Option<Request> {
        let mut it: Vec<Request> = lines
            .iter()
            .map(|l| Request {
                class: 0,
                line: l.to_string(),
            })
            .collect();
        it.reverse();
        move || it.pop()
    }

    #[test]
    fn line_n_plus_one_waits_for_reply_n() {
        let (mut feed, mut sink, ledger) = closed_loop(script(&["url a", "url b"]), |_, _| true);
        let mut line = String::new();
        feed.read_line(&mut line).unwrap();
        assert_eq!(line, "url a\n");
        let early = feed.fill_buf().map(|b| b.to_vec());
        assert_eq!(
            early.unwrap_err().kind(),
            io::ErrorKind::WouldBlock,
            "line 2 released before reply 1"
        );
        // A partial reply does not release the next line either.
        sink.write_all(b"miss url").unwrap();
        assert!(feed.fill_buf().is_err());
        sink.write_all(b" key=a\n").unwrap();
        line.clear();
        feed.read_line(&mut line).unwrap();
        assert_eq!(line, "url b\n");
        sink.write_all(b"hit\n").unwrap();
        line.clear();
        assert_eq!(
            feed.read_line(&mut line).unwrap(),
            0,
            "EOF after the script"
        );
        let l = ledger.borrow();
        assert_eq!((l.released(), l.replied()), (2, 2));
        assert_eq!(l.answered.len(), 2);
    }

    #[test]
    fn checker_sees_each_reply_with_its_class() {
        let (mut feed, mut sink, ledger) =
            closed_loop(script(&["x", "y"]), |_, reply| reply.starts_with("ok"));
        for reply in ["ok 1\n", "bad 2\n"] {
            let mut line = String::new();
            feed.read_line(&mut line).unwrap();
            sink.write_all(reply.as_bytes()).unwrap();
        }
        let l = ledger.borrow();
        assert_eq!(l.rejected_count, 1);
        assert_eq!(l.rejected[0], (0, "y".to_string(), "bad 2".to_string()));
    }
}
