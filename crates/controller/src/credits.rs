//! Stage 3 — enforcing guaranteed cycles and earning credits (§III.B.3).
//!
//! This module holds the credit [`Wallet`]. The stage-3 arithmetic runs
//! in [`Controller::iterate_into`](crate::Controller::iterate_into) over
//! its dense per-vCPU slots:
//!
//! 1. **Credits** (Eq. 4): a VM whose vCPUs consumed less than their
//!    guaranteed cycles `C_i` earns the difference into its wallet. The
//!    wallet pays for market cycles in the auction (stage 4), prioritizing
//!    frugal VMs over chronically greedy ones.
//! 2. **Base capping** (Eq. 5): each vCPU's allocation starts at
//!    `c = min(e, C_i)` — its estimated need, but never more than its
//!    guarantee (bursting beyond `C_i` is the auction's job, not a right).

use vfc_simcore::{FastMap, VmId};

/// Per-VM credit wallets (µs of cycles).
#[derive(Debug, Default)]
pub struct Wallet {
    credits: FastMap<VmId, u64>,
}

impl Wallet {
    /// Create an empty wallet set.
    pub fn new() -> Self {
        Wallet::default()
    }

    /// Credit one VM (Eq. 4: the controller's stage-3 loop computes
    /// `C_i − u` per under-consuming vCPU and deposits the difference).
    pub fn credit(&mut self, vm: VmId, amount: u64) {
        if amount > 0 {
            *self.credits.entry(vm).or_insert(0) += amount;
        }
    }

    /// Current balance of a VM.
    pub fn balance(&self, vm: VmId) -> u64 {
        self.credits.get(&vm).copied().unwrap_or(0)
    }

    /// Spend up to `amount` from a VM's wallet; returns what was actually
    /// debited (never overdraws).
    pub fn spend(&mut self, vm: VmId, amount: u64) -> u64 {
        let balance = self.credits.entry(vm).or_insert(0);
        let spent = amount.min(*balance);
        *balance -= spent;
        spent
    }

    /// Restore a balance from the crash journal (warm restart). A zero
    /// balance removes the wallet entry, matching a never-seen VM.
    pub fn set_balance(&mut self, vm: VmId, credits: u64) {
        if credits == 0 {
            self.credits.remove(&vm);
        } else {
            self.credits.insert(vm, credits);
        }
    }

    /// Clamp a VM's balance to `ceiling` (live-resize semantics: credits
    /// earned under a higher guarantee must not outlive it). Returns the
    /// amount forfeited, 0 when the balance was already within bounds.
    pub fn clamp(&mut self, vm: VmId, ceiling: u64) -> u64 {
        match self.credits.get_mut(&vm) {
            Some(balance) if *balance > ceiling => {
                let forfeited = *balance - ceiling;
                *balance = ceiling;
                if *balance == 0 {
                    self.credits.remove(&vm);
                }
                forfeited
            }
            _ => 0,
        }
    }

    /// Drop wallets of departed VMs.
    pub fn retain_vms(&mut self, live: &[VmId]) {
        let set: std::collections::HashSet<VmId> = live.iter().copied().collect();
        self.credits.retain(|vm, _| set.contains(vm));
    }

    /// Snapshot of all balances (for reports), sorted by VM id.
    pub fn snapshot(&self) -> Vec<(VmId, u64)> {
        let mut v = Vec::new();
        self.snapshot_into(&mut v);
        v
    }

    /// [`Wallet::snapshot`] into a caller-owned buffer (cleared first) —
    /// allocation-free once its capacity covers the VM count.
    pub fn snapshot_into(&self, out: &mut Vec<(VmId, u64)>) {
        out.clear();
        out.extend(self.credits.iter().map(|(k, v)| (*k, *v)));
        out.sort_unstable_by_key(|(vm, _)| *vm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credits_accumulate_across_iterations() {
        let mut w = Wallet::new();
        for _ in 0..5 {
            w.credit(VmId::new(0), 60_000);
        }
        w.credit(VmId::new(0), 0);
        assert_eq!(w.balance(VmId::new(0)), 5 * 60_000);
        assert_eq!(w.snapshot(), vec![(VmId::new(0), 5 * 60_000)]);
    }

    #[test]
    fn spend_never_overdraws() {
        let mut w = Wallet::new();
        w.credit(VmId::new(0), 100_000);
        assert_eq!(w.spend(VmId::new(0), 30_000), 30_000);
        assert_eq!(w.spend(VmId::new(0), 100_000), 70_000);
        assert_eq!(w.spend(VmId::new(0), 1), 0);
        assert_eq!(w.spend(VmId::new(9), 1), 0, "unknown VM has no credit");
    }

    #[test]
    fn retain_and_snapshot() {
        let mut w = Wallet::new();
        w.credit(VmId::new(0), 10);
        w.credit(VmId::new(1), 10);
        w.retain_vms(&[VmId::new(1)]);
        assert_eq!(w.balance(VmId::new(0)), 0);
        assert_eq!(w.snapshot(), vec![(VmId::new(1), 10)]);
    }
}
