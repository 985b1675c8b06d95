//! Stage 4 — the cycles auction (§III.B.4, Eq. 6, Algorithm 1).
//!
//! After base capping, the *market* holds every unallocated cycle of the
//! node (Eq. 6). Those cycles are sold to the **buyers** — vCPUs whose
//! estimate exceeds their current allocation — against their VM's credit
//! wallet. Sales happen in bounded **windows**, round-robin over buyers
//! ordered by wallet balance, so a rich VM cannot drain the market in one
//! bid; the auction ends when the market is empty, every buyer is
//! satisfied, or nobody can pay (leftovers go to stage 5).
//!
//! The paper's Algorithm 1 listing is empty in the published text; this
//! implementation reconstructs it from the surrounding prose — see
//! DESIGN.md §5.4 for the reconstruction argument.

use crate::credits::Wallet;
use std::collections::HashMap;
use vfc_simcore::{Micros, VcpuAddr};

/// A vCPU bidding for cycles beyond its allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Buyer {
    /// The bidding vCPU.
    pub addr: VcpuAddr,
    /// Cycles still wanted: `e_{i,j,t} − c_{i,j,t}`.
    pub want: Micros,
}

/// Outcome summary of an auction run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct AuctionOutcome {
    /// Cycles sold in total.
    pub sold: Micros,
    /// Number of window rounds executed.
    pub rounds: u32,
}

/// Run the auction: mutates `market`, `allocations` and the `wallet`.
///
/// `window` bounds the cycles one vCPU may buy per round. Convenience
/// wrapper over [`run_auction_with`] for HashMap-keyed allocations.
pub fn run_auction(
    market: &mut Micros,
    buyers: &mut Vec<Buyer>,
    wallet: &mut Wallet,
    window: Micros,
    allocations: &mut HashMap<VcpuAddr, Micros>,
) -> AuctionOutcome {
    run_auction_with(market, buyers, wallet, window, |addr, paid| {
        *allocations.entry(addr).or_insert(Micros::ZERO) += paid;
    })
}

/// [`run_auction`] with a caller-supplied grant sink: `grant(addr, paid)`
/// is invoked for every sale instead of touching a HashMap, so the hot
/// path can add into dense per-slot buffers. Allocation-free: the buyer
/// ordering uses `sort_unstable_by` over the caller's reused buffer
/// (the balance-desc / address-asc comparator is a total order, so an
/// unstable sort produces the same deterministic ordering the original
/// stable sort did).
pub fn run_auction_with<F: FnMut(VcpuAddr, Micros)>(
    market: &mut Micros,
    buyers: &mut Vec<Buyer>,
    wallet: &mut Wallet,
    window: Micros,
    mut grant: F,
) -> AuctionOutcome {
    let mut sold = Micros::ZERO;
    let mut rounds = 0u32;

    while !market.is_zero() && !buyers.is_empty() {
        // Richest VMs first; stable id tiebreak keeps runs deterministic.
        buyers.sort_unstable_by(|a, b| {
            wallet
                .balance(b.addr.vm)
                .cmp(&wallet.balance(a.addr.vm))
                .then(a.addr.cmp(&b.addr))
        });

        let mut any_sold = false;
        for buyer in buyers.iter_mut() {
            if market.is_zero() {
                break;
            }
            let bid = window.min(buyer.want).min(*market);
            if bid.is_zero() {
                continue;
            }
            let paid = Micros(wallet.spend(buyer.addr.vm, bid.as_u64()));
            if paid.is_zero() {
                continue;
            }
            *market -= paid;
            buyer.want -= paid;
            sold += paid;
            grant(buyer.addr, paid);
            any_sold = true;
        }

        buyers.retain(|b| !b.want.is_zero());
        rounds += 1;

        if !any_sold {
            // Nobody could pay: the rest is stage 5's to give away.
            break;
        }
    }

    AuctionOutcome { sold, rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vfc_simcore::{VcpuId, VmId};

    fn addr(vm: u32, j: u32) -> VcpuAddr {
        VcpuAddr::new(VmId::new(vm), VcpuId::new(j))
    }

    fn wallet_with(balances: &[(u32, u64)]) -> Wallet {
        let mut w = Wallet::new();
        for &(vm, balance) in balances {
            w.credit(VmId::new(vm), balance);
        }
        w
    }

    #[test]
    fn single_buyer_with_credit_gets_its_want() {
        let mut market = Micros(500_000);
        let mut wallet = wallet_with(&[(0, 1_000_000)]);
        let mut buyers = vec![Buyer {
            addr: addr(0, 0),
            want: Micros(300_000),
        }];
        let mut alloc = HashMap::new();
        let out = run_auction(
            &mut market,
            &mut buyers,
            &mut wallet,
            Micros(100_000),
            &mut alloc,
        );
        assert_eq!(out.sold, Micros(300_000));
        assert_eq!(market, Micros(200_000));
        assert_eq!(alloc[&addr(0, 0)], Micros(300_000));
        assert_eq!(wallet.balance(VmId::new(0)), 700_000);
        assert!(buyers.is_empty());
    }

    #[test]
    fn broke_buyer_gets_nothing() {
        let mut market = Micros(500_000);
        let mut wallet = Wallet::new();
        let mut buyers = vec![Buyer {
            addr: addr(0, 0),
            want: Micros(300_000),
        }];
        let mut alloc = HashMap::new();
        let out = run_auction(
            &mut market,
            &mut buyers,
            &mut wallet,
            Micros(100_000),
            &mut alloc,
        );
        assert_eq!(out.sold, Micros::ZERO);
        assert_eq!(market, Micros(500_000), "leftovers stay for stage 5");
        assert!(alloc.is_empty());
    }

    #[test]
    fn window_prevents_rich_vm_from_draining_the_market() {
        // Rich vm0 and modest vm1 both want 200k; the market only holds
        // 200k. With a 50k window they alternate: the rich VM cannot take
        // everything before vm1 gets its rounds.
        let mut market = Micros(200_000);
        let mut wallet = wallet_with(&[(0, 10_000_000), (1, 100_000)]);
        let mut buyers = vec![
            Buyer {
                addr: addr(0, 0),
                want: Micros(200_000),
            },
            Buyer {
                addr: addr(1, 0),
                want: Micros(200_000),
            },
        ];
        let mut alloc = HashMap::new();
        run_auction(
            &mut market,
            &mut buyers,
            &mut wallet,
            Micros(50_000),
            &mut alloc,
        );
        assert_eq!(market, Micros::ZERO);
        // vm1 bought the 100k its wallet allowed; rich vm0 the other 100k.
        assert_eq!(alloc[&addr(1, 0)], Micros(100_000));
        assert_eq!(alloc[&addr(0, 0)], Micros(100_000));
    }

    #[test]
    fn richer_vm_is_served_first_when_market_is_tiny() {
        let mut market = Micros(30_000);
        let mut wallet = wallet_with(&[(0, 500_000), (1, 100)]);
        let mut buyers = vec![
            Buyer {
                addr: addr(1, 0),
                want: Micros(30_000),
            },
            Buyer {
                addr: addr(0, 0),
                want: Micros(30_000),
            },
        ];
        let mut alloc = HashMap::new();
        run_auction(
            &mut market,
            &mut buyers,
            &mut wallet,
            Micros(50_000),
            &mut alloc,
        );
        // vm0 outbids within the first window.
        assert_eq!(alloc[&addr(0, 0)], Micros(30_000));
        assert_eq!(alloc.get(&addr(1, 0)), None);
    }

    #[test]
    fn partial_payment_when_wallet_smaller_than_window() {
        let mut market = Micros(100_000);
        let mut wallet = wallet_with(&[(0, 12_345)]);
        let mut buyers = vec![Buyer {
            addr: addr(0, 0),
            want: Micros(100_000),
        }];
        let mut alloc = HashMap::new();
        let out = run_auction(
            &mut market,
            &mut buyers,
            &mut wallet,
            Micros(50_000),
            &mut alloc,
        );
        assert_eq!(out.sold, Micros(12_345));
        assert_eq!(wallet.balance(VmId::new(0)), 0);
        // Still wants more but cannot pay: remains unsatisfied, auction
        // terminated.
        assert_eq!(buyers.len(), 1);
    }

    #[test]
    fn auction_is_deterministic() {
        let run_once = || {
            let mut market = Micros(333_333);
            let mut wallet = wallet_with(&[(0, 100_000), (1, 100_000), (2, 50_000)]);
            let mut buyers = vec![
                Buyer {
                    addr: addr(0, 0),
                    want: Micros(150_000),
                },
                Buyer {
                    addr: addr(1, 0),
                    want: Micros(150_000),
                },
                Buyer {
                    addr: addr(2, 0),
                    want: Micros(150_000),
                },
            ];
            let mut alloc = HashMap::new();
            run_auction(
                &mut market,
                &mut buyers,
                &mut wallet,
                Micros(10_000),
                &mut alloc,
            );
            let mut v: Vec<_> = alloc.into_iter().collect();
            v.sort();
            v
        };
        assert_eq!(run_once(), run_once());
    }

    proptest! {
        #[test]
        fn prop_auction_invariants(
            market0 in 0u64..2_000_000,
            wants in proptest::collection::vec((0u32..6, 0u64..500_000), 0..12),
            balances in proptest::collection::vec(0u64..800_000, 6),
            window in 1u64..200_000,
        ) {
            let mut wallet = wallet_with(
                &balances.iter().enumerate()
                    .map(|(i, b)| (i as u32, *b))
                    .collect::<Vec<_>>(),
            );
            let initial_balance: u64 = (0..6).map(|i| wallet.balance(VmId::new(i))).sum();
            let mut market = Micros(market0);
            let mut buyers: Vec<Buyer> = wants.iter().enumerate()
                .map(|(j, (vm, w))| Buyer { addr: addr(*vm, j as u32), want: Micros(*w) })
                .collect();
            let total_want: u64 = buyers.iter().map(|b| b.want.as_u64()).sum();
            let mut alloc = HashMap::new();
            let out = run_auction(&mut market, &mut buyers, &mut wallet,
                                  Micros(window), &mut alloc);

            // Never oversell the market.
            prop_assert_eq!(out.sold + market, Micros(market0));
            // Never sell more than was wanted.
            prop_assert!(out.sold.as_u64() <= total_want);
            // Credits pay exactly for what was sold.
            let final_balance: u64 = (0..6).map(|i| wallet.balance(VmId::new(i))).sum();
            prop_assert_eq!(initial_balance - final_balance, out.sold.as_u64());
            // Allocations sum to what was sold.
            let granted: u64 = alloc.values().map(|m| m.as_u64()).sum();
            prop_assert_eq!(granted, out.sold.as_u64());
        }
    }
}
