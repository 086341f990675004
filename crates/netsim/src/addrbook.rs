//! IP-address ↔ node-id directory.
//!
//! Simulated DNS actors address each other by IP (as real DNS does) while
//! the simulator routes by [`NodeId`]. The [`Simulation`](crate::Simulation)
//! owns one [`AddressBook`], binds each node's address in
//! [`Simulation::add_node`](crate::Simulation::add_node), and lends the
//! book to every handler through its [`Ctx`](crate::Ctx), which translates
//! in both directions. A [`SocketHost`](crate::SocketHost) lends one too.

use std::collections::HashMap;
use std::net::IpAddr;

use crate::sim::NodeId;

/// Bidirectional map between simulated IP addresses and node ids.
#[derive(Debug, Default, Clone)]
pub struct AddressBook {
    /// `None` for an address several nodes share.
    by_addr: HashMap<IpAddr, Option<NodeId>>,
    /// `by_node[i]` is `NodeId(i)`'s address: nodes are bound in id order.
    by_node: Vec<IpAddr>,
}

impl AddressBook {
    /// Creates an empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `node`, the next id in order, at `addr`. An address that
    /// several nodes share is the address of none of them.
    pub(crate) fn bind(&mut self, addr: IpAddr, node: NodeId) {
        assert_eq!(node.0, self.by_node.len(), "nodes are bound in id order");
        self.by_addr
            .entry(addr)
            .and_modify(|holder| *holder = None)
            .or_insert(Some(node));
        self.by_node.push(addr);
    }

    /// Node for an address.
    pub fn node_of(&self, addr: IpAddr) -> Option<NodeId> {
        self.by_addr.get(&addr).copied().flatten()
    }

    /// Address of a node.
    pub fn addr_of(&self, node: NodeId) -> Option<IpAddr> {
        self.by_node.get(node.0).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn ip(a: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(10, 0, 0, a))
    }

    #[test]
    fn bind_and_lookup() {
        let mut book = AddressBook::new();
        book.bind(ip(1), NodeId(0));
        book.bind(ip(2), NodeId(1));
        assert_eq!(book.node_of(ip(1)), Some(NodeId(0)));
        assert_eq!(book.addr_of(NodeId(1)), Some(ip(2)));
        assert_eq!(book.node_of(ip(9)), None);
        assert_eq!(book.addr_of(NodeId(2)), None);
    }

    #[test]
    fn a_shared_address_is_the_address_of_no_node() {
        let mut book = AddressBook::new();
        book.bind(ip(1), NodeId(0));
        assert_eq!(book.node_of(ip(1)), Some(NodeId(0)));
        book.bind(ip(1), NodeId(1));
        book.bind(ip(2), NodeId(2));
        book.bind(ip(1), NodeId(3));
        assert_eq!(book.node_of(ip(1)), None);
        assert_eq!(book.node_of(ip(2)), Some(NodeId(2)));
        assert_eq!(book.addr_of(NodeId(3)), Some(ip(1)));
    }
}
