//! The run-time environment of a LITL-X program: the frames whose slots
//! `lang::resolve` assigns, and the captures that carry them to the
//! threads running parallel bodies.

use std::cell::RefCell;
use std::sync::Arc;

use parking_lot::Mutex;

use super::interp::Value;
use super::resolve::{Block, FrameShape, Slot};

/// One block's slots at run time; which kind a block gets is decided by
/// `lang::resolve` (its "Which frames are shared").
pub(crate) enum Frame {
    /// Read and written only by the thread running the block.
    Own(RefCell<Vec<Value>>),
    /// Shared by reference with the parallel bodies that write it or run
    /// alongside it.
    Locked(Arc<Mutex<Vec<Value>>>),
    /// A naive `forall` helper's copy of an enclosing [`Frame::Own`],
    /// which nothing writes while the loop runs.
    Copied(Arc<[Value]>),
}

/// The lexical environment: the running block's frame and, through `up`,
/// the frames enclosing it, back to its function's (depth 0); a parallel
/// body's outermost frames are its capture's (`base`, depth 0 first).
/// Every slot a resolved read names is in this chain, and was written
/// before the read runs.
pub(crate) struct Env<'a> {
    frame: Frame,
    depth: u32,
    up: Option<&'a Env<'a>>,
    base: &'a [Frame],
}

/// The frames a parallel body runs in, outermost first — only
/// [`Frame::Locked`] and [`Frame::Copied`] ones — moved to the thread
/// that runs it.
pub(crate) struct Capture(Vec<Frame>);

impl Frame {
    fn new(shape: FrameShape) -> Frame {
        let slots = vec![Value::Unit; shape.slots];
        if shape.locked {
            Frame::Locked(Arc::new(Mutex::new(slots)))
        } else {
            Frame::Own(RefCell::new(slots))
        }
    }

    /// This frame as a parallel body running elsewhere sees it.
    fn share(&self) -> Frame {
        match self {
            Frame::Own(v) => Frame::Copied(Arc::from(v.borrow().as_slice())),
            Frame::Locked(v) => Frame::Locked(v.clone()),
            Frame::Copied(v) => Frame::Copied(v.clone()),
        }
    }
}

impl Capture {
    /// Run `f` in the captured environment.
    pub(crate) fn enter<R>(mut self, f: impl FnOnce(&Env<'_>) -> R) -> R {
        let frame = self.0.pop().expect("a capture holds its block's frame");
        f(&Env {
            frame,
            depth: self.0.len() as u32,
            up: None,
            base: &self.0,
        })
    }
}

impl Env<'_> {
    /// A function's frame.
    pub(crate) fn root(shape: FrameShape) -> Env<'static> {
        Env {
            frame: Frame::new(shape),
            depth: 0,
            up: None,
            base: &[],
        }
    }

    /// A frame of `shape` inside this one.
    pub(crate) fn child(&self, shape: FrameShape) -> Env<'_> {
        Env {
            frame: Frame::new(shape),
            depth: self.depth + 1,
            up: Some(self),
            base: self.base,
        }
    }

    /// The frame of loop body `body`'s iterations ([`Env::next_iteration`]).
    pub(crate) fn loop_frame(&self, body: &Block) -> Env<'_> {
        self.child(body.frame.expect("a loop body has a frame"))
    }

    /// Start the next iteration of a loop body in this frame, its loop
    /// variable (slot 0) bound to `i`. Every iteration gets a fresh
    /// frame: one nothing else holds (a capture copies an unshared one)
    /// is cleared and reused, a captured one is made anew.
    pub(crate) fn next_iteration(&mut self, i: i64) {
        match &self.frame {
            Frame::Own(v) => v.borrow_mut().fill(Value::Unit),
            Frame::Locked(v) if Arc::strong_count(v) == 1 => v.lock().fill(Value::Unit),
            Frame::Locked(v) => {
                let slots = vec![Value::Unit; v.lock().len()];
                self.frame = Frame::Locked(Arc::new(Mutex::new(slots)));
            }
            Frame::Copied(_) => unreachable!("a loop body's frame is its own"),
        }
        self.set_top(0, Value::Num(i as f64));
    }

    fn frame(&self, depth: u32) -> &Frame {
        if let Some(f) = self.base.get(depth as usize) {
            return f;
        }
        let mut env = self;
        while env.depth != depth {
            env = env.up.expect("a resolved slot is in the chain");
        }
        &env.frame
    }

    /// `f` of the value in `slot`.
    pub(crate) fn with<R>(&self, slot: Slot, f: impl FnOnce(&Value) -> R) -> R {
        let i = slot.index as usize;
        match self.frame(slot.depth) {
            Frame::Own(v) => f(&v.borrow()[i]),
            Frame::Locked(v) => f(&v.lock()[i]),
            Frame::Copied(v) => f(&v[i]),
        }
    }

    /// The value in `slot`.
    pub(crate) fn get(&self, slot: Slot) -> Value {
        self.with(slot, Value::clone)
    }

    pub(crate) fn set(&self, slot: Slot, value: Value) {
        let i = slot.index as usize;
        match self.frame(slot.depth) {
            Frame::Own(v) => v.borrow_mut()[i] = value,
            Frame::Locked(v) => v.lock()[i] = value,
            Frame::Copied(_) => unreachable!("a frame parallel bodies write is locked"),
        }
    }

    pub(crate) fn set_top(&self, index: u32, value: Value) {
        let depth = self.depth;
        self.set(Slot { depth, index }, value);
    }

    /// The frames a parallel body spawned here runs in.
    pub(crate) fn capture(&self) -> Capture {
        let mut frames = Vec::with_capacity(self.depth as usize + 1);
        let mut env = Some(self);
        while let Some(e) = env {
            frames.push(e.frame.share());
            env = e.up;
        }
        frames.extend(self.base.iter().rev().map(Frame::share));
        frames.reverse();
        Capture(frames)
    }
}
