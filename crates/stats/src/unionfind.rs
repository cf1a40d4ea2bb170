//! Disjoint-set union (union-find) with path compression and union by
//! rank — the clustering backbone for campaign linking.

/// A disjoint-set structure over `0..n`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Representative of `x`'s set (with path compression).
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merge the sets of `a` and `b`; returns true if they were separate.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.components -= 1;
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// Whether `a` and `b` share a set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of disjoint sets.
    pub fn components(&self) -> usize {
        self.components
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Cluster assignment: element → compacted cluster id (0-based, in
    /// order of first appearance), numbered through a root-indexed array.
    pub fn clusters(&mut self) -> Vec<usize> {
        let n = self.len();
        let mut id_of_root = vec![usize::MAX; n];
        let mut next = 0;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let root = self.find(i);
            if id_of_root[root] == usize::MAX {
                id_of_root[root] = next;
                next += 1;
            }
            out.push(id_of_root[root]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_unions() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.components(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "already merged");
        assert_eq!(uf.components(), 3);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
    }

    #[test]
    fn clusters_are_compact() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 3);
        uf.union(4, 5);
        let c = uf.clusters();
        assert_eq!(c.len(), 6);
        assert_eq!(c[0], c[3]);
        assert_eq!(c[4], c[5]);
        assert_ne!(c[0], c[4]);
        let max = *c.iter().max().unwrap();
        assert_eq!(max + 1, uf.components());
    }

    #[test]
    fn chain_compresses() {
        let mut uf = UnionFind::new(1000);
        for i in 0..999 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.components(), 1);
        assert!(uf.connected(0, 999));
    }

    #[test]
    fn empty() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert!(uf.clusters().is_empty());
    }
}
